//===- bench/bench_vp_model.cpp - Symbolic-processors (VP model) bench ----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Supports the Section 6 claim that "there is little or no difference in
// compile-time for a symbolic than for a constant number of processors":
// compiles each benchmark with fixed and with symbolic processor-array
// extents and compares, and demonstrates the cyclic VP model end to end on
// the Gaussian-elimination subject of Figure 5.
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

/// A fixed-processor twin of the stencil benchmarks, for the comparison.
AppInstance fixedTwin(const char *Which, int64_t N) {
  using namespace dhpf::hpf;
  AppInstance App;
  App.Name = std::string(Which) + "-fixed";
  App.ProcArrayName = "P";
  App.Prog = std::make_unique<Program>(App.Name);
  Program &P = *App.Prog;
  P.addProcs("P", {Program::procDim(4)});
  P.addTemplate("T", {range(1, N), range(1, N)});
  for (const char *A : {"X", "RX"}) {
    P.addArray(A, {range(1, N), range(1, N)});
    P.addAlign({A, "T", {alignDim(0), alignDim(1)}});
  }
  P.addDistribute({"T", "P", {distBlock(), distStar()}});
  Procedure &Main = P.addProcedure("main");
  ComputeNest Nest;
  Nest.Name = "resid";
  Nest.Loops = {loop("i", 2, N - 1), loop("j", 2, N - 1)};
  Statement S;
  S.Write = ref("RX", {"i", "j"});
  S.Reads = {ref("X", {AffineExpr("i") - 1, "j"}),
             ref("X", {AffineExpr("i") + 1, "j"}),
             ref("X", {"i", AffineExpr("j") - 1}),
             ref("X", {"i", AffineExpr("j") + 1}),
             ref("X", {"i", "j"})};
  S.SemanticsId = 0;
  Nest.Stmts = {S};
  P.addNest(Main, Nest);
  App.Setup = [](spmd::Interpreter &) {};
  return App;
}

} // namespace

int main() {
  std::printf("== Symbolic vs fixed processor counts (Section 4/6) ==\n");
  {
    auto Sym = makeTomcatv(258, 1);
    auto Fix = fixedTwin("stencil", 258);
    auto CSym = compileProgram(*Sym.Prog);
    auto CFix = compileProgram(*Fix.Prog);
    std::printf("tomcatv-class stencil: symbolic-P %.3fs vs fixed-P %.3fs "
                "(ratio %.2f)\n",
                CSym->Timers.seconds(phase::Total),
                CFix->Timers.seconds(phase::Total),
                CSym->Timers.seconds(phase::Total) /
                    CFix->Timers.seconds(phase::Total));
  }

  std::printf("\n== Gaussian elimination on (CYCLIC,CYCLIC), symbolic "
              "P1xP2 (Figure 5) ==\n");
  AppInstance G = makeGauss(48);
  auto C = compileProgram(*G.Prog);
  std::printf("compile: %.3fs, %u comm events\n",
              C->Timers.seconds(phase::Total), C->NumCommEvents);
  std::printf("%8s %12s %12s %10s\n", "grid", "time(s)", "messages",
              "speedup");
  double T1 = 0;
  for (auto Shape : {std::vector<int64_t>{1, 1}, {2, 1}, {2, 2}, {2, 4},
                     {4, 4}}) {
    RunConfig RC;
    RC.CheckValidity = false;
    RC.ProcExtents = {{G.ProcArrayName, Shape}};
    Interpreter I(C->Program, RC);
    G.Setup(I);
    RunResult RR = I.run();
    if (Shape[0] == 1 && Shape[1] == 1)
      T1 = RR.SimSeconds;
    std::printf("%4lldx%-3lld %12.4f %12llu %10.2f\n",
                (long long)Shape[0], (long long)Shape[1], RR.SimSeconds,
                (unsigned long long)RR.Messages, T1 / RR.SimSeconds);
    if (!RR.Valid)
      std::printf("  VALIDITY FAILURE: %s\n",
                  RR.Violations.empty() ? "?" : RR.Violations[0].c_str());
  }
  std::printf("\n(cyclic distributions trade more, smaller messages for "
              "balance on the shrinking\nactive region — the VP loops "
              "restrict work to active virtual processors.)\n");
  return 0;
}
