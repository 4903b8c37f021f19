//===- apps/Apps.h - Benchmark applications (paper Sections 6-7) ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mini-HPF encodings of the paper's benchmark codes, each carrying its
/// arithmetic and initial values in the program, plus a serial reference
/// check:
///
///   - JACOBI: 4-point stencil with a convergence reduction, (BLOCK,BLOCK)
///     on a 2 x (P/2) processor grid (Figure 7(c)).
///   - TOMCATV-like: mesh-generation stencils with residual arrays and two
///     max reductions per step, (BLOCK,*) rows (Figure 7(a)).
///   - ERLEBACHER-like: 3-D compact differencing; local x/y sweeps, a
///     vectorized z boundary exchange, and a pipelined z solve, (*,*,BLOCK)
///     (Figure 7(b)).
///   - GAUSS: LU-style elimination on (CYCLIC,CYCLIC) over a symbolic
///     processor grid (the Figure 5 subject).
///   - SP-like: a synthetic multi-procedure code matched to the NAS SP
///     compile-time subject of Table 1 (30 procedures, 3-D/4-D arrays,
///     stencil/pipeline/copy nests, some non-owner CPs).
///
/// All programs leave the number of processors symbolic, as the paper's
/// experiments do.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_APPS_APPS_H
#define DHPF_APPS_APPS_H

#include "hpf/Program.h"
#include "spmd/Interp.h"

#include <functional>
#include <memory>
#include <string>

namespace dhpf {
namespace apps {

/// A benchmark program plus its validation.
struct AppInstance {
  std::string Name;
  std::unique_ptr<hpf::Program> Prog;
  std::string ProcArrayName;
  /// Compares the final state with a serial reference; returns true on
  /// success and fills \p Err otherwise. Null when no check is provided.
  std::function<bool(spmd::Interpreter &, std::string &Err)> Check;
};

AppInstance makeJacobi(int64_t N, int64_t Steps);
AppInstance makeTomcatv(int64_t N, int64_t Steps);
AppInstance makeErlebacher(int64_t N, int64_t Steps);
AppInstance makeGauss(int64_t N);

/// The synthetic SP-scale compile-time subject. \p SymbolicProcs selects
/// the 2 x (P/2) symbolic grid (sp-sym) versus the fixed 2x2 grid (SP-4).
AppInstance makeSpLike(unsigned Procedures, bool SymbolicProcs,
                       int64_t N = 16);

} // namespace apps
} // namespace dhpf

#endif // DHPF_APPS_APPS_H
