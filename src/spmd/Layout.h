//===- spmd/Layout.h - Rank-independent run setup -------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The setup every executor of a compiled SPMD program performs before the
/// first statement runs: resolving the processor shape and the full binding
/// environment, each array's ownership by the direct block/cyclic formulas,
/// and each rank's storage box. None of it runs the set engine: everything
/// a run needs from the sets was compiled into the program.
///
/// A rank stores, per array, only a box of the global index space: the
/// bounding box of the elements it owns plus every element its own loop
/// nests (compute, send and receive) can name — the section it owns plus
/// the non-local part of DataAccessed (Section 3.2), its overlap area. The
/// box is the interval hull of every subscript over the rank's loop nests,
/// evaluated with the rank's coordinates bound and every loop variable
/// ranging over its bounds' hull (guards ignored), so it is conservative
/// and every access the rank makes falls inside it. A BLOCK dimension
/// shrinks by its processor extent; CYCLIC, CYCLIC(k), undistributed and
/// replicated dimensions keep their full extent. Every rank's box is
/// padded to the widest rank's extents, so all ranks (and the in-process
/// run) lower to one plan and share one native kernel.
///
/// Every Interpreter — in-process or one rank of a launch — runs this
/// setup, and the launcher (src/rt) resolves the same layout to admit the
/// run and to place the rank dumps, so the logic lives here where both can
/// reach it.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_LAYOUT_H
#define DHPF_SPMD_LAYOUT_H

#include "spmd/Interp.h"
#include "spmd/SpmdProgram.h"

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace dhpf {
namespace spmd {

/// Everything about a run that is independent of which rank executes.
struct ProgramLayout {
  std::vector<int64_t> ProcShape; ///< extents of the processor array
  unsigned NumProcs = 1;
  /// Program parameters plus processor extents and block sizes, bound once.
  std::map<std::string, int64_t> AllBindings;
};

/// Resolves the processor shape and full binding environment from a run
/// configuration, admitting the shape before anything is sized by it:
/// symbolic processor extents must be supplied in Config.ProcExtents,
/// fixed ones may only be repeated there, every extent must be >= 1 and
/// the processor count must fit an int32 rank. Throws FootprintError
/// otherwise.
ProgramLayout resolveLayout(const SpmdProgram &Prog, const RunConfig &Config);

/// A run that cannot be laid out: a processor shape resolveLayout refuses
/// (the message names the processor array and the shape), an alignment
/// the formulas do not cover (an array replicated along a distributed
/// template dimension), or arrays that cannot be allocated — a bound,
/// extent or element count that overflows 64 bits, a negative extent, or
/// storage that together exceeds this machine's physical memory (the
/// message names the array and its bounds).
class FootprintError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// One array's bounds and how the block/cyclic formulas give each
/// processor its elements.
struct ArrayLayout {
  std::string Name;
  std::string Desc; ///< "array 'U'(1:16, 1:16)", for diagnostics
  std::vector<int64_t> Lo, Extent;
  unsigned ElemBytes = 8;
  /// Not aligned to any template: every processor keeps, and computes on,
  /// a full copy. Rank 0's copy is the one reported.
  bool Replicated = false;
  /// One distributed template dimension: the processor coordinate it
  /// decides, from array dimension ArrayDim (template position Stride *
  /// i + Offset) or, for a constant alignment, always Coord.
  struct Term {
    unsigned PDim = 0;
    int ArrayDim = -1; ///< -1: constant alignment
    hpf::DistSpec::Kind Kind = hpf::DistSpec::Kind::Block;
    int64_t Stride = 1, Offset = 0, TLo = 0;
    int64_t Block = 1; ///< Block: ceil(template extent / Procs); CyclicK: k
    int64_t Procs = 1;
    int64_t Coord = 0; ///< constant alignment only
    /// The owning coordinate of template position \p T.
    int64_t coordAt(int64_t T) const;
  };
  std::vector<Term> Terms;

  int64_t elements() const;
  /// True when some rank owns only a BLOCK range along dimension \p D.
  bool blockDim(unsigned D) const;
  /// The rank owning the element at \p Idx (aligned arrays only).
  unsigned ownerOf(const std::vector<int64_t> &Idx,
                   const std::vector<int64_t> &Shape) const;
  /// The range [First, Last] of dimension \p D that the BLOCK terms leave
  /// the processor at \p Coords (the full extent when none reads \p D);
  /// false when it is empty or a constant alignment gives the array to
  /// another coordinate. Constant time: admission sizes boxes with it.
  bool blockRange(unsigned D, const std::vector<int64_t> &Coords,
                  int64_t &First, int64_t &Last) const;
  /// Per dimension, the indices the processor at \p Coords owns, ascending
  /// (every index of a replicated array). Every list is empty when it owns
  /// nothing.
  std::vector<std::vector<int64_t>>
  owned(const std::vector<int64_t> &Coords) const;
};

/// Bits of a rank store's per-element validity byte.
enum : uint8_t {
  ValidOwn = 1, ///< the rank owns the element (all of a replicated array)
  ValidGot = 2, ///< a received value is held
  ValidPut = 4, ///< written by this rank as a non-owner: it may send it
};

/// The storage every rank of a run allocates.
struct StorageLayout {
  std::vector<ArrayLayout> Arrays; ///< in name order: the plan's array ids
  /// Per array, the box extents of every rank, padded to the widest.
  std::vector<std::vector<int64_t>> BoxExtent;
  /// [rank][array]: the lower corner of that rank's box.
  std::vector<std::vector<std::vector<int64_t>>> BoxLo;

  /// Elements in one rank's box of array \p A.
  int64_t boxElements(size_t A) const;
};

/// Every array's layout, its global bounds admitted: element counts are
/// computed with overflow checks that stay in every build, and the
/// template of every aligned array must hold a cell in each dimension.
/// Throws FootprintError otherwise.
std::vector<ArrayLayout> resolveArrays(const SpmdProgram &Prog,
                                       const ProgramLayout &L);

/// resolveArrays plus every rank's box (see the file comment).
StorageLayout resolveStorage(const SpmdProgram &Prog, const ProgramLayout &L);

/// Which storage of a layout a run allocates.
enum class Footprint : uint8_t {
  /// Every rank's boxes (8 bytes per element and a validity byte) plus the
  /// merged global arrays: an in-process plan-executor run, or a launch on
  /// one machine and its merge.
  AllRanks,
  /// One rank's boxes: a rank process of a launch.
  OneRank,
  /// One global array each, a replicated one once per processor: the tree
  /// oracle.
  Global,
};

/// Throws FootprintError unless the storage \p F of \p S fits in physical
/// memory.
void admitFootprint(const StorageLayout &S,
                    Footprint F = Footprint::AllRanks);

/// Column-major strides of a dense store with extents \p Extent.
std::vector<int64_t> columnStrides(const std::vector<int64_t> &Extent);

/// Rank \p P's coordinates in the processor array (dimension 0 fastest).
std::vector<int64_t> rankCoords(const ProgramLayout &L, unsigned P);

/// Rank \p P's starting variable environment: the bound parameters, its
/// representative-processor slots (mv*) and physical coordinates (mc*).
std::vector<int64_t> rankEnv(const SpmdProgram &Prog, const ProgramLayout &L,
                             unsigned P);

/// Calls \p F(Idx) for every index tuple of the product of \p Lists, in
/// column-major order (dimension 0 fastest).
template <typename Fn>
void forEachIndex(const std::vector<std::vector<int64_t>> &Lists, Fn &&F) {
  for (const std::vector<int64_t> &L : Lists)
    if (L.empty())
      return;
  std::vector<size_t> K(Lists.size(), 0);
  std::vector<int64_t> Idx(Lists.size());
  for (size_t D = 0; D != Lists.size(); ++D)
    Idx[D] = Lists[D][0];
  for (;;) {
    F(Idx);
    size_t D = 0;
    while (D != Lists.size() && ++K[D] == Lists[D].size()) {
      K[D] = 0;
      Idx[D] = Lists[D][0];
      ++D;
    }
    if (D == Lists.size())
      return;
    Idx[D] = Lists[D][K[D]];
  }
}

/// Calls \p F(Idx, Len) for every run of the product of \p Lists whose
/// dimension-0 indices are consecutive, in column-major order: the run
/// starts at index tuple Idx and covers Idx[0] .. Idx[0] + Len - 1.
template <typename Fn>
void forEachRun(const std::vector<std::vector<int64_t>> &Lists, Fn &&F) {
  if (Lists.empty() || Lists[0].empty())
    return;
  std::vector<int64_t> Starts, Lens;
  for (int64_t X : Lists[0]) {
    if (!Starts.empty() && Starts.back() + Lens.back() == X) {
      ++Lens.back();
      continue;
    }
    Starts.push_back(X);
    Lens.push_back(1);
  }
  // Dimension 0 walks run numbers; each becomes its run's first index.
  std::vector<std::vector<int64_t>> Heads = Lists;
  Heads[0].resize(Starts.size());
  for (size_t R = 0; R != Starts.size(); ++R)
    Heads[0][R] = static_cast<int64_t>(R);
  std::vector<int64_t> Idx;
  forEachIndex(Heads, [&](const std::vector<int64_t> &H) {
    Idx = H;
    Idx[0] = Starts[H[0]];
    F(Idx, Lens[H[0]]);
  });
}

} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_LAYOUT_H
