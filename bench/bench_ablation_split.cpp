//===- bench/bench_ablation_split.cpp - Loop-splitting ablation -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Ablation for the Figure 4 transformation (Section 3.4 / Section 7's
// TOMCATV discussion): with loop splitting, the receive of non-local
// boundary data overlaps the computation of the local iterations, hiding
// message latency; without it, latency sits on the critical path before
// every sweep. Reports simulated times and the split/no-split ratio.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"

#include <cstdio>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;
using namespace dhpf::spmd;

namespace {

double timedRun(const AppInstance &App, bool Splitting,
                const std::vector<int64_t> &Shape, uint64_t &Msgs) {
  CompilerOptions Opts;
  Opts.LoopSplitting = Splitting;
  auto Compiled = compileProgram(*App.Prog, Opts);
  RunConfig RC;
  // Exaggerate latency slightly so the overlap effect is visible at these
  // problem sizes (documented: shapes, not absolute values, matter).
  RC.Machine.Alpha = 200e-6;
  RC.ProcExtents = {{App.ProcArrayName, Shape}};
  Interpreter I(Compiled->Program, RC);
  I.seedArrays();
  RunResult RR = I.run();
  Msgs = RR.Messages;
  if (!RR.Valid)
    std::fprintf(stderr, "VALIDITY FAILURE (splitting=%d)\n", Splitting);
  return RR.SimSeconds;
}

} // namespace

int main() {
  std::printf("== Ablation: non-local index-set splitting (Figure 4) ==\n");
  std::printf("%-24s %10s %12s %12s %8s\n", "code", "procs", "split(s)",
              "no-split(s)", "ratio");
  auto RunCase = [&](const char *Name, AppInstance App,
                     std::vector<int64_t> Shape) {
    uint64_t M1, M2;
    double TSplit = timedRun(App, true, Shape, M1);
    double TNoSplit = timedRun(App, false, Shape, M2);
    int64_t NP = 1;
    for (int64_t S : Shape)
      NP *= S;
    std::printf("%-24s %10lld %12.4f %12.4f %8.2f\n", Name,
                (long long)NP, TSplit, TNoSplit, TNoSplit / TSplit);
  };
  RunCase("tomcatv 130, 8 steps", makeTomcatv(130, 8), {4});
  RunCase("tomcatv 130, 8 steps", makeTomcatv(130, 8), {8});
  RunCase("jacobi 128, 6 steps", makeJacobi(128, 6), {2, 2});
  RunCase("jacobi 128, 6 steps", makeJacobi(128, 6), {2, 4});
  std::printf("\nratio > 1 means splitting hides communication latency "
              "behind the local iterations.\n");
  return 0;
}
