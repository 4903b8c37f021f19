//===- bench/bench_ablation_inplace.cpp - In-place comm ablation ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Ablation for Section 3.3: when the contiguity analysis proves a message
// section contiguous (column-major), the pack/unpack copies are skipped.
// The expected pattern (matching the paper's discussion):
//   * JACOBI (BLOCK,BLOCK): the j-direction boundary (a column segment) is
//     contiguous, the i-direction boundary is not — "in-place send and
//     receive operations along one of the two dimensions";
//   * ERLEBACHER (*,*,BLOCK): full z-planes are contiguous;
//   * TOMCATV (BLOCK,*): boundary rows are NOT contiguous (the paper's
//     motivation for loop splitting instead of overlap areas there).
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

void runCase(const char *Name, AppInstance App,
             const std::vector<int64_t> &Shape) {
  CompilerOptions With, Without;
  Without.InPlaceAnalysis = false;
  auto CWith = compileProgram(*App.Prog, With);
  auto CWithout = compileProgram(*App.Prog, Without);

  auto Elapsed = [&](const spmd::SpmdProgram &SP) {
    RunConfig RC;
    RC.CheckValidity = false;
    RC.Machine.PackPerByte = 20e-9; // make copy cost visible
    RC.ProcExtents = {{App.ProcArrayName, Shape}};
    Interpreter I(SP, RC);
    App.Setup(I);
    RunResult RR = I.run();
    if (!RR.Valid)
      std::fprintf(stderr, "VALIDITY FAILURE %s\n", Name);
    return RR.SimSeconds;
  };
  double TW = Elapsed(CWith->Program);
  double TO = Elapsed(CWithout->Program);
  std::printf("%-26s %8u/%-8u %10.4f %10.4f %8.3f\n", Name,
              CWith->NumContiguousProven, CWith->NumCommEvents, TW, TO,
              TO / TW);
}

} // namespace

int main() {
  std::printf("== Ablation: in-place communication (Section 3.3) ==\n");
  std::printf("%-26s %17s %10s %10s %8s\n", "code", "contig/events",
              "inplace(s)", "copy(s)", "ratio");
  runCase("jacobi 128 (BLOCK,BLOCK)", makeJacobi(128, 4), {2, 2});
  runCase("erlebacher 32 (*,*,BLK)", makeErlebacher(32, 2), {4});
  runCase("tomcatv 130 (BLOCK,*)", makeTomcatv(130, 4), {4});
  std::printf("\n'contig' counts communication events proven contiguous at "
              "compile time;\nratio > 1 shows the avoided pack/unpack "
              "copies.\n");
  return 0;
}
