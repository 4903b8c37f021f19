//===- examples/jacobi_pipeline.cpp - Whole-compiler walkthrough ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Compiles the JACOBI benchmark end to end, prints the generated SPMD node
// program (partitioned loops, pack/send/recv/unpack loops), runs it on the
// simulated machine for several processor grids, and verifies the numerics
// against a serial reference.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"

#include <cstdio>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;
using namespace dhpf::spmd;

int main() {
  AppInstance App = makeJacobi(32, 3);
  std::printf("== Compiling %s (4-point stencil, (BLOCK,BLOCK), symbolic "
              "processor grid) ==\n",
              App.Name.c_str());
  auto Compiled = compileProgram(*App.Prog);
  std::printf("compile time: %.3fs; %u communication events; "
              "%u nests split (Figure 4)\n\n",
              Compiled->Timers.seconds(phase::Total),
              Compiled->NumCommEvents, Compiled->NumSplitNests);

  std::printf("== Generated SPMD node program ==\n%s\n",
              Compiled->Program.print().c_str());

  std::printf("== Executing on the simulated machine ==\n");
  std::printf("%8s %12s %10s %10s %8s\n", "grid", "time(s)", "messages",
              "bytes", "check");
  for (auto Shape : {std::vector<int64_t>{1, 1}, {2, 1}, {2, 2}, {2, 4}}) {
    RunConfig RC;
    RC.ProcExtents = {{App.ProcArrayName, Shape}};
    Interpreter I(Compiled->Program, RC);
    I.seedArrays();
    RunResult RR = I.run();
    std::string Err;
    bool OK = RR.Valid && App.Check(I, Err);
    std::printf("%4lldx%-3lld %12.5f %10llu %10llu %8s\n",
                (long long)Shape[0], (long long)Shape[1], RR.SimSeconds,
                (unsigned long long)RR.Messages,
                (unsigned long long)RR.Bytes, OK ? "ok" : "FAIL");
    if (!OK)
      std::printf("   %s\n",
                  !RR.Valid && !RR.Violations.empty()
                      ? RR.Violations[0].c_str()
                      : Err.c_str());
  }
  std::printf("\nThe same compiled program ran on every grid: the number of "
              "processors stayed\nsymbolic through compilation (Section 4's "
              "virtual-processor model).\n");
  return 0;
}
