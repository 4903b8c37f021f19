//===- examples/gauss_symbolic.cpp - Figure 5 walkthrough ----------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Reproduces the paper's Figure 5 interactively: the Gaussian-elimination
// loop on a (CYCLIC,CYCLIC) distribution over a symbolic P1 x P2 grid.
// Prints the primitive sets, the active-virtual-processor sets the
// equations derive, and then compiles and runs the full elimination.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Comm.h"
#include "core/Compiler.h"
#include "core/Partition.h"

#include <cstdio>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;
using namespace dhpf::hpf;
using namespace dhpf::spmd;

int main() {
  // The Figure 5 fragment: update reads the pivot row A(PIVOT, j).
  Program P("gauss-fig5");
  P.addParam("PIVOT");
  P.addProcs("PA", {Program::procDimSym("P1"), Program::procDimSym("P2")});
  P.addTemplate("T", {range(1, 100), range(1, 100)});
  P.addArray("A", {range(1, 100), range(1, 100)});
  P.addAlign({"A", "T", {alignDim(0), alignDim(1)}});
  P.addDistribute({"T", "PA", {distCyclic(), distCyclic()}});
  ComputeNest Nest;
  Nest.Name = "update";
  Nest.Loops = {loop("i", AffineExpr("PIVOT") + 1, 100),
                loop("j", AffineExpr("PIVOT") + 1, 100)};
  Statement S;
  S.Write = ref("A", {"i", "j"});
  S.Reads = {ref("A", {"PIVOT", "j"})};
  Nest.Stmts = {S};

  MapBuilder MB(P);
  LayoutResult L = MB.layout("A");
  std::printf("== Figure 5: active virtual processors ==\n");
  std::printf("layout (VP model; each template cell is a VP):\n  %s\n\n",
              L.Map.simplify().toString().c_str());

  CPInfo CP = computeCP(MB, Nest, S);
  std::printf("CPMap:\n  %s\n\n", CP.CPMap.simplify().toString().c_str());

  CommEventInput E;
  E.Array = "A";
  E.Refs.push_back({CP.CPMap, false, MB.refMap(Nest, S.Reads[0]), false});
  CommSets CS = computeCommSets(MB, E);
  auto Clean = [](const Relation &R) {
    return R.normalizeExists().simplify().coalesce().toString();
  };
  std::printf("busyVPSet        = %s\n", Clean(CS.BusyVPSet).c_str());
  std::printf("activeSendVPSet  = %s\n",
              Clean(CS.ActiveSendVPSet).c_str());
  std::printf("activeRecvVPSet  = %s\n\n",
              Clean(CS.ActiveRecvVPSet).c_str());
  std::printf("(only the VPs owning pivot-row elements send; every busy VP "
              "receives — Figure 5(c).)\n\n");

  std::printf("== Running the full elimination (N=24) ==\n");
  AppInstance App = makeGauss(24);
  auto Compiled = compileProgram(*App.Prog);
  for (auto Shape : {std::vector<int64_t>{1, 1}, {2, 2}, {3, 2}}) {
    RunConfig RC;
    RC.ProcExtents = {{App.ProcArrayName, Shape}};
    Interpreter I(Compiled->Program, RC);
    I.seedArrays();
    RunResult RR = I.run();
    std::string Err;
    bool OK = RR.Valid && App.Check(I, Err);
    std::printf("grid %lldx%lld: %llu messages, result %s\n",
                (long long)Shape[0], (long long)Shape[1],
                (unsigned long long)RR.Messages, OK ? "ok" : Err.c_str());
  }
  return 0;
}
