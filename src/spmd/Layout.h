//===- spmd/Layout.h - Rank-independent run setup -------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The setup every executor of a compiled SPMD program performs before the
/// first statement runs: resolving the processor shape and the full binding
/// environment, and building dense array stores with per-element
/// ownership. None of it runs the set engine: everything a run needs from
/// the sets was compiled into the program.
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
/// configuration, admitting the shape before anything is sized by it:
/// symbolic processor extents must be supplied in Config.ProcExtents,
/// fixed ones may only be repeated there, every extent must be >= 1 and
/// the processor count must fit an int32 rank. Throws FootprintError
/// otherwise.
ProgramLayout resolveLayout(const SpmdProgram &Prog, const RunConfig &Config);

/// A run that cannot be laid out: a processor shape resolveLayout refuses
/// (the message names the processor array and the shape), or arrays that
/// cannot be allocated — a bound, extent or element count that overflows
/// 64 bits, a negative extent, or arrays that together exceed this
/// machine's physical memory (the message names the array and its
/// bounds).
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

} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_LAYOUT_H
