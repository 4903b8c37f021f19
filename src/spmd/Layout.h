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
/// seeding per-processor variable environments, and mapping
/// virtual-processor partner tuples to physical ranks. None of it runs
/// the set engine: everything a run needs from the sets was compiled into
/// the program.
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
/// configuration. Symbolic processor extents must be supplied in
/// Config.ProcExtents.
ProgramLayout resolveLayout(const SpmdProgram &Prog, const RunConfig &Config);

/// A program whose arrays cannot be allocated: a bound, extent or element
/// count that overflows 64 bits, a negative extent, or arrays that
/// together exceed this machine's physical memory. The message names the
/// array and its bounds.
class FootprintError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Throws FootprintError unless every array of \p Prog under \p L can be
/// allocated. buildArrayStores runs the same check before it allocates.
void admitFootprint(const SpmdProgram &Prog, const ProgramLayout &L);

/// Builds every array's dense store, including the per-element Owner map
/// computed from the direct block/cyclic formulas (independent of the set
/// framework, so it cross-checks the compiled sets). Throws
/// FootprintError, before allocating anything, for arrays that do not fit.
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

} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_LAYOUT_H
