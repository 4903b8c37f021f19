//===- core/Dependence.h - Dependence relation and loop order ------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data dependences of a compute nest as one set equation, and the
/// loop-order decisions that rest on it. A nest's dependence relation
///
///   D = U_{(a,b)} { s -> t : a(s) = b(t), s < t, s, t in loop }
///
/// over every ordered pair of references a, b to the same array of which
/// at least one writes, is taken over the nest's whole iteration set: it
/// holds for every partitioning at once, so it is conservative across
/// processors. A reordering of the nest's iterations is legal iff no pair
/// of D runs backwards under it, which makes each legality test one
/// intersection and one emptiness test:
///
///   - a loop permutation pi:   D n { s -> t : pi(t) < pi(s) } = {}
///   - the Figure 4(b) split:   D restricted to (later section -> earlier
///                              section) = {}
///   - one section scanned as disjoint pieces in any order:
///                              D restricted to (section -> section) = {}
///
/// Communication placement is tested the same way. Messages move between
/// iterations of the loops outside a nest's communication level (its
/// `vectorize` level), so a flow dependence whose source and sink run on
/// different processors must differ in one of those loops: the flow part
/// of D across processors, restricted to pairs that agree on the outer
/// loops, must be empty. (An anti-dependence needs no test: receives are
/// hoisted before the nest, so they deliver the old values it reads.)
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_CORE_DEPENDENCE_H
#define DHPF_CORE_DEPENDENCE_H

#include "hpf/Maps.h"

#include <vector>

namespace dhpf {
namespace core {

/// The dependence relation D of \p Nest, a map loop -> loop.
Relation dependenceRelation(const hpf::MapBuilder &MB,
                            const hpf::ComputeNest &Nest);

/// The flow part of D across processors: pairs s -> t where statement a
/// writes at s the element statement b reads at t, s runs first, and some
/// processor executes s but not t. \p Iters[k] is statement k's iteration
/// set on the representative processor (Partition.h's cpIterSet), null for
/// a replicated statement, which no pair involves. With a symbolic
/// processor count this holds for a pair that some processor count splits.
Relation crossProcessorFlow(const hpf::MapBuilder &MB,
                            const hpf::ComputeNest &Nest,
                            const std::vector<const Relation *> &Iters);

/// The smallest communication level L >= \p Level at which placement
/// serves \p Cross (a map over \p NumLoops loops): no pair of it agrees on
/// the first L loops. \p Level itself when it already does.
unsigned placementLevelFor(const Relation &Cross, unsigned Level,
                           unsigned NumLoops);

/// The loop order that scans \p Nest's first written array in storage
/// order: the loops below the first \p Fixed (the communication level,
/// which never move) sorted by decreasing stride in that array. The
/// layout is column-major, so a loop's stride is decided by the highest
/// subscript it appears in; a loop the write does not index counts as the
/// widest, so the unit-stride loop ends innermost. Ties keep source order.
/// Element k is the source index of the k-th loop from outside.
std::vector<unsigned> storageOrder(const hpf::ComputeNest &Nest,
                                   unsigned Fixed);

/// Source order with only the innermost loop of \p Wanted moved innermost.
std::vector<unsigned> innermostOnly(const std::vector<unsigned> &Wanted);

/// True when scanning the loops in \p Order runs every pair of \p D
/// source first.
bool orderKeepsDependences(const Relation &D,
                           const std::vector<unsigned> &Order);

/// \p S with its dimensions reordered: dimension k of the result is
/// dimension Order[k] of \p S.
Relation permuteDims(const Relation &S, const std::vector<unsigned> &Order);

/// KPR's disjoint disjunctive form of \p S: conjuncts that are pairwise
/// disjoint and together equal \p S.
std::vector<Relation> disjointPieces(const Relation &S);

} // namespace core
} // namespace dhpf

#endif // DHPF_CORE_DEPENDENCE_H
