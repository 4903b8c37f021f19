//===- spmd/Layout.h - Rank-independent run setup -------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The setup every executor of a compiled SPMD program performs before the
/// first statement runs: resolving the processor shape and the full binding
/// environment, building dense array stores with per-element ownership,
/// seeding per-processor variable environments, mapping virtual-processor
/// partner tuples to physical ranks, and deciding the effective per-event
/// in-place flags (compile verdicts plus Section 3.3 runtime upgrades).
///
/// Every Interpreter — in-process or one rank of a launch — runs this
/// setup, and the launcher (src/rt) resolves the same layout to size the
/// mesh and merge the rank dumps, so the logic lives here where both can
/// reach it.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_LAYOUT_H
#define DHPF_SPMD_LAYOUT_H

#include "spmd/Interp.h"
#include "spmd/SpmdProgram.h"

#include <map>
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
/// configuration. Symbolic processor extents must be supplied in
/// Config.ProcExtents.
ProgramLayout resolveLayout(const SpmdProgram &Prog, const RunConfig &Config);

/// Builds every array's dense store, including the per-element Owner map
/// computed from the direct block/cyclic formulas (independent of the set
/// framework, so it cross-checks the compiled sets).
std::map<std::string, ArrayStore>
buildArrayStores(const SpmdProgram &Prog, const RunConfig &Config,
                 const ProgramLayout &L);

/// The initial variable environment of processor \p P: parameters, the
/// representative-processor slots (mv*), and the physical coordinates
/// (mc*).
std::vector<int64_t> initialEnv(const SpmdProgram &Prog,
                                const ProgramLayout &L, unsigned P);

/// Maps physical processor coordinates to a linear rank.
unsigned linearRank(const std::vector<int64_t> &ProcShape,
                    const std::vector<int64_t> &Coords);

/// Maps a partner tuple from a comm loop (physical or VP indices per
/// dimension) to a physical rank. Hot path: takes the shape and bindings
/// directly so callers need not materialize a ProgramLayout.
unsigned vpPartnerRank(const SpmdProgram &Prog,
                       const std::vector<int64_t> &ProcShape,
                       const std::map<std::string, int64_t> &AllBindings,
                       const std::vector<int64_t> &Partner);

/// The runtime check the paper attaches to VP communication code:
/// fictitious virtual processors (block-VP indices that are not block
/// starts, or VPs beyond the physical array) get no messages.
bool vpIsReal(const SpmdProgram &Prog, const std::vector<int64_t> &ProcShape,
              const std::map<std::string, int64_t> &AllBindings,
              const std::vector<int64_t> &Partner);

/// Effective per-event in-place flags: the compile-time verdict plus any
/// Section 3.3 runtime upgrades under this run's bindings. \p Upgrades is
/// incremented once per upgraded event.
std::vector<char> resolveEventInPlace(const SpmdProgram &Prog,
                                      const ProgramLayout &L,
                                      unsigned &Upgrades);

} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_LAYOUT_H
