//===- bench/bench_obs_overhead.cpp - Cost of the observability layer ----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Measures the wall-clock price of the tracing/metrics probes on the full
// compile + execute pipeline for the Figure 7 codes, three ways per app:
//
//   off     — probes present but the trace buffer idle (the default state
//             of every production run; each probe is one relaxed load)
//   traced  — the global trace buffer recording, as under --trace
//
// In a DHPF_OBS=OFF build both modes are the uninstrumented program and
// the overhead is zero by construction; the JSON records `compiled_in`
// so the harness can tell the two cases apart.
//
//   bench_obs_overhead [--quick] [--check] [--out=FILE]
//
// --check exits nonzero on a validity failure, on a traced run that
// recorded no events (probes silently dead), or on overhead past a
// generous noise bound. --out writes the JSON report (nothing is written
// without it).
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"
#include "obs/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;
using namespace dhpf::spmd;

namespace {

struct Measurement {
  std::string Name;
  double OffSecs = 0;    ///< buffer idle
  double TracedSecs = 0; ///< buffer recording
  uint64_t TraceEvents = 0;
  bool Valid = true;
};

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// One timed compile + execute of a fresh app instance.
double timedPipeline(AppInstance (*Make)(),
                     const std::vector<int64_t> &Procs, Measurement &M) {
  AppInstance App = Make();
  double T0 = now();
  auto Compiled = compileProgram(*App.Prog);
  if (!Compiled) {
    M.Valid = false;
    return 0;
  }
  RunConfig RC;
  RC.ProcExtents = {{App.ProcArrayName, Procs}};
  RC.Engine = EngineKind::Bytecode;
  RC.ExecThreads = 1;
  Interpreter I(Compiled->Program, RC);
  App.Setup(I);
  RunResult RR = I.run();
  double Secs = now() - T0;
  M.Valid = M.Valid && RR.Valid;
  if (!RR.Valid)
    std::fprintf(stderr, "VALIDITY FAILURE %s\n", App.Name.c_str());
  return Secs;
}

Measurement benchApp(const char *Name, AppInstance (*Make)(),
                     const std::vector<int64_t> &Procs, int Reps) {
  Measurement M;
  M.Name = Name;
  obs::TraceBuffer &GB = obs::TraceBuffer::global();

  // Warm-up rep (page-in, cache registration) outside both timings.
  GB.stop();
  timedPipeline(Make, Procs, M);

  double Off = 1e30, Traced = 1e30;
  for (int R = 0; R != Reps; ++R) {
    GB.stop();
    GB.clear();
    Off = std::min(Off, timedPipeline(Make, Procs, M));
    GB.clear();
    GB.start();
    Traced = std::min(Traced, timedPipeline(Make, Procs, M));
    M.TraceEvents = GB.eventCount();
    GB.stop();
  }
  GB.clear();
  M.OffSecs = Off;
  M.TracedSecs = Traced;
  return M;
}

double overheadPct(const Measurement &M) {
  return M.OffSecs > 0 ? 100.0 * (M.TracedSecs - M.OffSecs) / M.OffSecs
                       : 0.0;
}

void writeJson(const char *Path, const std::vector<Measurement> &Ms) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(F, "{\n  \"bench\": \"obs_overhead\",\n");
  std::fprintf(F, "  \"compiled_in\": %s,\n",
               obs::compiledIn() ? "true" : "false");
  std::fprintf(F, "  \"apps\": [\n");
  for (size_t I = 0; I != Ms.size(); ++I) {
    const Measurement &M = Ms[I];
    std::fprintf(F, "    {\n      \"name\": \"%s\",\n", M.Name.c_str());
    std::fprintf(F, "      \"off_s\": %.6f,\n", M.OffSecs);
    std::fprintf(F, "      \"traced_s\": %.6f,\n", M.TracedSecs);
    std::fprintf(F, "      \"overhead_pct\": %.2f,\n", overheadPct(M));
    std::fprintf(F, "      \"trace_events\": %llu,\n",
                 static_cast<unsigned long long>(M.TraceEvents));
    std::fprintf(F, "      \"valid\": %s\n    }%s\n",
                 M.Valid ? "true" : "false", I + 1 != Ms.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
}

AppInstance quickJacobi() { return makeJacobi(96, 4); }
AppInstance quickTomcatv() { return makeTomcatv(98, 3); }
AppInstance quickErlebacher() { return makeErlebacher(24, 2); }
AppInstance quickGauss() { return makeGauss(48); }
AppInstance fullJacobi() { return makeJacobi(256, 5); }
AppInstance fullTomcatv() { return makeTomcatv(258, 3); }
AppInstance fullErlebacher() { return makeErlebacher(48, 2); }
AppInstance fullGauss() { return makeGauss(96); }

} // namespace

int main(int argc, char **argv) {
  bool Quick = false, Check = false;
  const char *Out = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(argv[I], "--check") == 0)
      Check = true;
    else if (std::strncmp(argv[I], "--out=", 6) == 0)
      Out = argv[I] + 6;
  }
  int Reps = Quick ? 3 : 5;

  std::printf("== Observability overhead: idle probes vs active tracing "
              "(DHPF_OBS=%s) ==\n",
              obs::compiledIn() ? "ON" : "OFF");
  std::vector<Measurement> Ms;
  if (Quick) {
    Ms.push_back(benchApp("jacobi", quickJacobi, {2, 2}, Reps));
    Ms.push_back(benchApp("tomcatv", quickTomcatv, {4}, Reps));
    Ms.push_back(benchApp("erlebacher", quickErlebacher, {4}, Reps));
    Ms.push_back(benchApp("gauss", quickGauss, {2, 2}, Reps));
  } else {
    Ms.push_back(benchApp("jacobi", fullJacobi, {2, 2}, Reps));
    Ms.push_back(benchApp("tomcatv", fullTomcatv, {4}, Reps));
    Ms.push_back(benchApp("erlebacher", fullErlebacher, {4}, Reps));
    Ms.push_back(benchApp("gauss", fullGauss, {2, 2}, Reps));
  }

  std::printf("  %-14s | %10s | %10s | %9s | %8s\n", "app", "off",
              "traced", "overhead", "events");
  bool Ok = true;
  for (const Measurement &M : Ms) {
    std::printf("  %-14s | %9.3fs | %9.3fs | %8.2f%% | %8llu\n",
                M.Name.c_str(), M.OffSecs, M.TracedSecs, overheadPct(M),
                static_cast<unsigned long long>(M.TraceEvents));
    if (!M.Valid)
      Ok = false;
    if (Check && obs::compiledIn() && M.TraceEvents == 0) {
      std::fprintf(stderr, "CHECK FAILURE: %s traced run recorded no "
                           "events\n",
                   M.Name.c_str());
      Ok = false;
    }
    // Compile+run of these sizes runs long enough that real probe cost
    // would show; the bound is loose because best-of-N on shared CI
    // hardware still jitters by a few percent.
    if (Check && overheadPct(M) > 20.0) {
      std::fprintf(stderr, "CHECK FAILURE: tracing overhead %.2f%% on %s\n",
                   overheadPct(M), M.Name.c_str());
      Ok = false;
    }
  }
  if (Out) {
    writeJson(Out, Ms);
    std::printf("wrote %s\n", Out);
  }
  return Ok ? 0 : 1;
}
