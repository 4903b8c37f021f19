//===- bench/bench_fig7_speedups.cpp - Figure 7 reproduction -------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Regenerates the paper's Figure 7: speedups of the compiled codes on the
// (simulated) message-passing machine for 1..16 processors, two problem
// sizes each:
//
//   (a) TOMCATV  (BLOCK,*)  — moderate speedup on the small size (the two
//       reductions per small time step limit scaling), better on the large;
//   (b) ERLEBACHER (*,*,BLOCK) — pipelined z-solve and small messages limit
//       the small size; fair scaling on the large size;
//   (c) JACOBI (BLOCK,BLOCK) on 2 x (P/2) — near-linear scaling.
//
// Speedups are relative to the 1-processor simulated run, as in the paper
// for the small sizes. Absolute times are simulator artifacts; only the
// curve shapes are meaningful. Alongside each speedup the table reports
// the simulated run's message and byte counters, and --out= writes the
// whole figure as JSON for the committed reference.
//
//===----------------------------------------------------------------------===//

#include "TableUtil.h"
#include "apps/Apps.h"
#include "core/Compiler.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;
using namespace dhpf::spmd;

namespace {

struct Point {
  int Procs = 0;
  double Speedup = 0;
  uint64_t Messages = 0;
  uint64_t Bytes = 0;
};

struct Series {
  std::string Label;
  std::vector<Point> Points;
};

/// Runs one app across processor counts; Shape(p) gives the grid.
Series runSeries(AppInstance App, const std::string &Label,
                 const std::vector<int> &Procs,
                 const std::function<std::vector<int64_t>(int)> &Shape) {
  auto Compiled = compileProgram(*App.Prog);
  Series S;
  S.Label = Label;
  double T1 = 0;
  for (int NP : Procs) {
    RunConfig RC;
    // SP-2-like constants: ~66MHz nodes running real stencil bodies (each
    // Cost unit models ~10 flops -> 150ns), 80us message latency, ~40MB/s.
    RC.Machine.SecPerWork = 150e-9;
    RC.Machine.Alpha = 80e-6;
    RC.Machine.BetaPerByte = 25e-9;
    RC.ProcExtents = {{App.ProcArrayName, Shape(NP)}};
    Interpreter I(Compiled->Program, RC);
    I.seedArrays();
    RunResult RR = I.run();
    if (!RR.Valid) {
      std::fprintf(stderr, "VALIDITY FAILURE %s p=%d: %s\n", Label.c_str(),
                   NP, RR.Violations.empty() ? "?"
                                             : RR.Violations[0].c_str());
    }
    if (NP == 1)
      T1 = RR.SimSeconds;
    S.Points.push_back({NP, T1 / RR.SimSeconds, RR.Messages, RR.Bytes});
  }
  return S;
}

void printFigure(const char *Title, const std::vector<Series> &Ss) {
  std::printf("\n%s\n", Title);
  std::printf("  %6s", "procs");
  for (const Series &S : Ss)
    std::printf(" | %-38s", S.Label.c_str());
  std::printf("\n  %6s", "");
  for (size_t I = 0; I != Ss.size(); ++I)
    std::printf(" | %8s %10s %18s", "speedup", "msgs", "bytes");
  std::printf("\n");
  for (unsigned I = 0; I != Ss[0].Points.size(); ++I) {
    std::printf("  %6d", Ss[0].Points[I].Procs);
    for (const Series &S : Ss)
      std::printf(" | %8.2f %10llu %18llu", S.Points[I].Speedup,
                  static_cast<unsigned long long>(S.Points[I].Messages),
                  static_cast<unsigned long long>(S.Points[I].Bytes));
    std::printf("\n");
  }
}

void writeJson(const char *Path, const std::vector<Series> &All) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    std::exit(1);
  }
  std::fprintf(F, "{\n  \"bench\": \"fig7_speedups\",\n");
  bench::writeMachineStamp(F);
  std::fprintf(F, "  \"series\": [\n");
  for (size_t S = 0; S != All.size(); ++S) {
    std::fprintf(F, "    {\n      \"label\": \"%s\",\n      \"points\": [\n",
                 All[S].Label.c_str());
    for (size_t I = 0; I != All[S].Points.size(); ++I) {
      const Point &P = All[S].Points[I];
      std::fprintf(F,
                   "        {\"procs\": %d, \"speedup\": %.4f, "
                   "\"messages\": %llu, \"bytes\": %llu}%s\n",
                   P.Procs, P.Speedup,
                   static_cast<unsigned long long>(P.Messages),
                   static_cast<unsigned long long>(P.Bytes),
                   I + 1 != All[S].Points.size() ? "," : "");
    }
    std::fprintf(F, "      ]\n    }%s\n", S + 1 != All.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
}

} // namespace

int main(int argc, char **argv) {
  // --code=tomcatv|erlebacher|jacobi|all, --out=<json>
  std::string Code = "all";
  const char *Out = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--code=", 7) == 0)
      Code = argv[I] + 7;
    else if (std::strncmp(argv[I], "--out=", 6) == 0)
      Out = argv[I] + 6;
  }

  std::vector<int> Procs = {1, 2, 4, 8, 16};
  auto Shape1D = [](int P) { return std::vector<int64_t>{P}; };
  auto Shape2x = [](int P) {
    return P == 1 ? std::vector<int64_t>{1, 1}
                  : std::vector<int64_t>{2, P / 2};
  };

  std::printf("== Figure 7: speedups of compiled codes (simulated SP-2) ==\n");

  std::vector<Series> All;
  if (Code == "all" || Code == "tomcatv") {
    // The paper's sizes: 514x514 (the SPEC size) and a smaller one whose
    // scaling is limited by the per-step reductions.
    std::vector<Series> Ss;
    Ss.push_back(runSeries(makeTomcatv(130, 4), "tomcatv 130x130", Procs,
                           Shape1D));
    Ss.push_back(runSeries(makeTomcatv(514, 4), "tomcatv 514x514", Procs,
                           Shape1D));
    printFigure("(a) TOMCATV speedups", Ss);
    All.insert(All.end(), Ss.begin(), Ss.end());
  }
  if (Code == "all" || Code == "erlebacher") {
    std::vector<Series> Ss;
    Ss.push_back(runSeries(makeErlebacher(32, 2), "erlebacher 32^3", Procs,
                           Shape1D));
    Ss.push_back(runSeries(makeErlebacher(64, 2), "erlebacher 64^3", Procs,
                           Shape1D));
    printFigure("(b) ERLEBACHER speedups", Ss);
    All.insert(All.end(), Ss.begin(), Ss.end());
  }
  if (Code == "all" || Code == "jacobi") {
    std::vector<Series> Ss;
    Ss.push_back(
        runSeries(makeJacobi(384, 5), "jacobi 384x384", Procs, Shape2x));
    printFigure("(c) JACOBI speedups", Ss);
    All.insert(All.end(), Ss.begin(), Ss.end());
  }
  if (Out) {
    writeJson(Out, All);
    std::printf("\nwrote %s\n", Out);
  }
  return 0;
}
