//===- pset/Relation.h - Presburger sets and mappings --------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Relation is a union of Conjuncts over a Space: the (potentially
/// non-convex) integer tuple sets and mappings of the paper's Section 2
/// framework. Sets are relations with zero input dimensions. The operation
/// set mirrors what the paper lists as required of the underlying integer
/// set package: "intersection, union, difference, domain, range,
/// composition, and projection", plus the satisfiability and hull queries
/// used by the in-place communication analysis (Section 3.3).
///
/// All operations are exact over the integers (existential elimination uses
/// the Omega test's dark shadow + splintering).
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_PSET_RELATION_H
#define DHPF_PSET_RELATION_H

#include "pset/Conjunct.h"
#include "pset/Space.h"
#include "support/Diag.h"

#include <atomic>
#include <map>
#include <string>
#include <vector>

namespace dhpf {

/// A union of conjuncts over a space: an integer set or mapping.
class Relation {
public:
  Relation() = default;
  explicit Relation(Space S) : Sp(std::move(S)) {}

  // The memoized fingerprint is an atomic, so copies and moves are spelled
  // out; both carry the memo along (it stays valid for an identical
  // conjunct list).
  Relation(const Relation &O)
      : Sp(O.Sp), Conjs(O.Conjs),
        FPCache(O.FPCache.load(std::memory_order_relaxed)) {}
  Relation(Relation &&O) noexcept
      : Sp(std::move(O.Sp)), Conjs(std::move(O.Conjs)),
        FPCache(O.FPCache.load(std::memory_order_relaxed)) {
    O.FPCache.store(0, std::memory_order_relaxed);
  }
  Relation &operator=(const Relation &O) {
    Sp = O.Sp;
    Conjs = O.Conjs;
    FPCache.store(O.FPCache.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }
  Relation &operator=(Relation &&O) noexcept {
    Sp = std::move(O.Sp);
    Conjs = std::move(O.Conjs);
    FPCache.store(O.FPCache.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    O.FPCache.store(0, std::memory_order_relaxed);
    return *this;
  }

  /// The empty relation over \p S (no conjuncts).
  static Relation empty(Space S) { return Relation(std::move(S)); }

  /// The universe relation over \p S (one unconstrained conjunct).
  static Relation universe(Space S);

  const Space &space() const { return Sp; }
  unsigned numParams() const { return Sp.numParams(); }
  unsigned numIn() const { return Sp.numIn(); }
  unsigned numOut() const { return Sp.numOut(); }
  bool isSet() const { return Sp.isSet(); }

  const std::vector<Conjunct> &conjuncts() const { return Conjs; }
  std::vector<Conjunct> &conjuncts() {
    invalidateFP(); // the caller may mutate through the reference
    return Conjs;
  }

  /// Appends an unconstrained conjunct and returns a reference for adding
  /// constraints.
  Conjunct &addConjunct();
  /// Appends a conjunct (shape must match the space).
  void addConjunct(Conjunct C);

  //===--------------------------------------------------------------------===
  // Core operations (paper Appendix A)
  //===--------------------------------------------------------------------===

  /// Set/relation intersection (dimensions must match).
  Relation intersect(const Relation &O) const;
  /// Set/relation union (dimensions must match).
  Relation unionWith(const Relation &O) const;
  /// Exact difference: this minus \p O.
  Relation subtract(const Relation &O) const;
  /// Composition per the paper's appendix: (this ; Next), i.e. apply this
  /// first, then \p Next. Requires numOut() == Next.numIn().
  Relation composeWith(const Relation &Next) const;
  /// Image of set \p S (over this relation's input space): paper's R1(S1).
  Relation apply(const Relation &S) const;
  /// Swaps input and output tuples.
  Relation inverse() const;
  /// The set of input tuples related to some output tuple.
  Relation domain() const;
  /// The set of output tuples related to some input tuple.
  Relation range() const;
  /// Restricts the input tuple to set \p S (paper's "restrict domain").
  Relation restrictDomain(const Relation &S) const;
  /// Restricts the output tuple to set \p S (paper's \\cap_range).
  Relation restrictRange(const Relation &S) const;
  /// Converts output dimensions [First, First+Count) to existentials
  /// (projection); remaining dims close up.
  Relation projectOutDims(unsigned First, unsigned Count) const;
  /// Projects a set onto a single dimension: the paper's S<i> notation from
  /// Section 3.3 (all other dimensions become existential).
  Relation projectOntoDim(unsigned Dim) const;
  /// Flattens a mapping into a set over (input dims ++ output dims); used
  /// to generate loops that enumerate (partner, element) pairs of a
  /// communication map.
  Relation asSet() const;

  //===--------------------------------------------------------------------===
  // Queries
  //===--------------------------------------------------------------------===

  /// Structural fingerprint of this relation: pset::fingerprint(*this)
  /// (pset/Fingerprint.h), memoized on the object. The first call walks the
  /// conjuncts; later calls are a single atomic load. Copies inherit the
  /// memo; every mutation path invalidates it. Only valid while no
  /// outstanding mutable conjuncts()/addConjunct() reference is being used
  /// to mutate.
  uint64_t fingerprint() const;

  bool isEmpty() const;
  /// Subset test; short-circuits to true when the operands are
  /// structurally identical (equal fingerprints).
  bool isSubsetOf(const Relation &O) const;
  /// Set equality; short-circuits via fingerprint equality and aligns the
  /// parameter lists once for both containment directions.
  bool isEqualTo(const Relation &O) const;
  /// Membership oracle: is (In -> Out) in the relation under the given
  /// parameter values? For sets pass the tuple as \p Out.
  bool contains(const std::vector<int64_t> &Out,
                const std::vector<int64_t> &ParamVals = {},
                const std::vector<int64_t> &In = {}) const;

  /// The "simple hull": one conjunct made of every constraint (from any
  /// conjunct, after existential elimination) that is valid for the whole
  /// union. Contains the convex hull, so isEmpty(simpleHull() - S) soundly
  /// proves S convex (Section 3.3's IsConvex test).
  Relation simpleHull() const;

  /// True if the set provably equals its simple hull (IsConvex, §3.3).
  bool isConvexProven() const;

  /// True if the set provably contains at most one point per parameter
  /// binding in each dimension-projected sense used by §3.3 (IsSingleton):
  /// implemented as: for the (rank-1) set, x and x' both in S imply x = x'.
  bool isSingletonProven() const;

  //===--------------------------------------------------------------------===
  // Structure and parameters
  //===--------------------------------------------------------------------===

  /// Re-targets the relation onto a parameter list that must contain all
  /// current parameters (by name); new parameters are unconstrained.
  Relation alignParams(const std::vector<std::string> &NewParams) const;

  /// Substitutes concrete values for the named parameters, dropping them.
  Relation bindParams(const std::map<std::string, int64_t> &Values) const;

  /// Turns the input dimensions into new parameters with the given names
  /// (appended to the parameter list); the result is a set over the old
  /// output dimensions. This realizes the paper's "fixed processor m"
  /// device: e.g. Layout({m}) as a data set parametric in m.
  Relation bindDomainToParams(const std::vector<std::string> &Names) const;

  /// Adds the constraint (out[Dim] == V) to every conjunct.
  Relation fixOutDim(unsigned Dim, int64_t V) const;

  /// Equates out[Dim] with parameter \p Name (added if absent).
  Relation equateOutDimToParam(unsigned Dim, const std::string &Name) const;

  /// Normalizes conjuncts, removes redundant constraints and unsatisfiable
  /// or duplicate conjuncts.
  Relation simplify() const;

  /// simplify() plus removal of conjuncts subsumed by other conjuncts.
  Relation coalesce() const;

  /// Normalizes existential variables exactly: eliminates every
  /// existential that admits an existential-free form; the rest remain as
  /// lonely divisibility witnesses (sets such as "i even" have no
  /// witness-free Presburger form). May multiply conjuncts.
  Relation normalizeExists() const;

  /// Renders in the parser's syntax, e.g.
  ///   "[N] -> { [i,j] -> [p] : 1 <= i && i <= N }".
  std::string toString() const;

private:
  Space Sp;
  std::vector<Conjunct> Conjs;

  /// Memoized fingerprint(); 0 means "not computed" (a genuinely zero hash
  /// is remapped to a fixed nonzero constant, consistently for all equal
  /// relations). Atomic so concurrent readers of a shared relation race
  /// benignly (both store the same value).
  mutable std::atomic<uint64_t> FPCache{0};
  void invalidateFP() const { FPCache.store(0, std::memory_order_relaxed); }

  /// Aligns the parameter lists of A and B by name (union of both lists).
  static void alignPair(Relation &A, Relation &B);

  // Uncached operation bodies. The public entry points consult the global
  // pset::OpCache (pset/OpCache.h) and fall through to these on a miss;
  // with the cache disabled they are called directly.
  Relation intersectImpl(const Relation &O) const;
  Relation subtractImpl(const Relation &O) const;
  Relation composeImpl(const Relation &Next) const;
  Relation simplifyImpl() const;
  Relation coalesceImpl() const;
  bool isEmptyImpl() const;
};

/// Parses the textual relation syntax (see pset/Parser.cpp for the
/// grammar), reporting malformed input into \p Diags with line:col
/// locations (named \p FileName). Works identically in Debug and Release
/// builds.
Expected<Relation> parseRelation(const std::string &Text,
                                 DiagnosticEngine &Diags,
                                 const std::string &FileName = "<set>");

/// Convenience wrapper for trusted input (tests, examples, internal
/// construction of layouts): prints diagnostics to stderr and aborts on
/// malformed input — unconditionally, not via assert().
Relation parseRelation(const std::string &Text);

} // namespace dhpf

#endif // DHPF_PSET_RELATION_H
