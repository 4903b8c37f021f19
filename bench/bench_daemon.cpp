//===- bench/bench_daemon.cpp - Daemon vs batch compile-service bench ----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Measures the payoff of the service-oriented toolchain: a long-lived
// daemon whose Presburger operation cache, intern table, and artifact
// cache stay warm across requests, versus the batch compiler paying
// cold-start on every invocation.
//
// Three measurements:
//
//   1. cold batch: sp-sym compiled with every cache empty — what each
//      standalone `dhpfc compile` invocation pays;
//   2. warm daemon: the same request recompiled through an in-process
//      daemon whose OpCache is already hot (artifact cache bypassed, so
//      the compiler genuinely reruns). The headline claim is
//      warm/cold >= 2x;
//   3. load generation: concurrent clients replaying a mixed workload of
//      registry programs against the daemon, reporting dedup counts,
//      artifact hit rate, and throughput.
//
// --quick shrinks the SP subject (CI mode), --check exits nonzero if the
// warm speedup drops below 2x, --out= writes the JSON report (nothing is
// written without it) and --ref= names the reference (default: the
// committed BENCH_daemon.json).
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/CompilerService.h"
#include "hpf/HpfPrinter.h"
#include "pset/OpCache.h"
#include "rt/Daemon.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace dhpf;
using namespace dhpf::core;

namespace {

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

CompilerService &svc() { return CompilerService::global(); }

void coldStart() {
  pset::OpCache::global().clear();
  svc().clearArtifacts();
}

/// One compile through the service with the artifact cache bypassed (the
/// compiler really runs); returns wall seconds.
double compileOnce(const std::string &Name, const std::string &Source) {
  CompileRequest R;
  R.Name = Name;
  R.Source = Source;
  R.BypassArtifactCache = true;
  double T0 = now();
  auto A = svc().compile(R);
  double Secs = now() - T0;
  if (!A->Ok) {
    std::fprintf(stderr, "FATAL: %s failed to compile:\n%s", Name.c_str(),
                 A->DiagText.c_str());
    std::exit(1);
  }
  return Secs;
}

/// The same compile, but issued over the daemon socket.
double compileOnDaemon(rt::Daemon &D, const std::string &Name,
                       const std::string &Source, bool Fresh) {
  std::unique_ptr<net::MsgStream> S = net::connectClient(D.socketPath());
  double T0 = now();
  rt::DaemonCompileResult R =
      rt::daemonCompile(*S, Name, Source, CompilerOptions(), Fresh);
  double Secs = now() - T0;
  if (!R.Ok) {
    std::fprintf(stderr, "FATAL: daemon compile of %s failed:\n%s",
                 Name.c_str(), R.DiagText.c_str());
    std::exit(1);
  }
  return Secs;
}

struct LoadResult {
  double WallSecs = 0.0;
  uint64_t Requests = 0;
  uint64_t CompilesStarted = 0;
  uint64_t DedupedInFlight = 0;
  uint64_t ArtifactHits = 0;
};

/// \p Clients threads, each replaying the subject list \p Rounds times
/// against the daemon — the "millions of users" shape at bench scale.
LoadResult runLoad(rt::Daemon &D,
                   const std::vector<std::pair<std::string, std::string>>
                       &Subjects,
                   unsigned Clients, unsigned Rounds) {
  ServiceStats Before = svc().stats();
  double T0 = now();
  std::vector<std::thread> Ts;
  for (unsigned C = 0; C != Clients; ++C)
    Ts.emplace_back([&, C] {
      std::unique_ptr<net::MsgStream> S =
          net::connectClient(D.socketPath());
      for (unsigned R = 0; R != Rounds; ++R)
        for (size_t I = 0; I != Subjects.size(); ++I) {
          // Stagger each client's starting subject so the first round
          // exercises in-flight dedup, not just artifact replay.
          const auto &Sub = Subjects[(I + C) % Subjects.size()];
          rt::DaemonCompileResult Res = rt::daemonCompile(
              *S, Sub.first, Sub.second, CompilerOptions());
          if (!Res.Ok) {
            std::fprintf(stderr, "FATAL: load compile of %s failed\n",
                         Sub.first.c_str());
            std::exit(1);
          }
        }
    });
  for (std::thread &T : Ts)
    T.join();
  LoadResult L;
  L.WallSecs = now() - T0;
  ServiceStats After = svc().stats();
  L.Requests = After.Requests - Before.Requests;
  L.CompilesStarted = After.CompilesStarted - Before.CompilesStarted;
  L.DedupedInFlight = After.DedupedInFlight - Before.DedupedInFlight;
  L.ArtifactHits = After.ArtifactHits - Before.ArtifactHits;
  return L;
}

double readRefSpeedup(const char *Path) {
  std::FILE *F = std::fopen(Path, "r");
  if (!F)
    return -1.0;
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  size_t K = Text.find("\"warm_speedup\": ");
  return K == std::string::npos ? -1.0
                                : std::atof(Text.c_str() + K + 16);
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false, Check = false;
  const char *Out = nullptr;
  const char *Ref = "BENCH_daemon.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(argv[I], "--check") == 0)
      Check = true;
    else if (std::strncmp(argv[I], "--out=", 6) == 0)
      Out = argv[I] + 6;
    else if (std::strncmp(argv[I], "--ref=", 6) == 0)
      Ref = argv[I] + 6;
  }
  double RefSpeedup = Check ? readRefSpeedup(Ref) : -1.0;

  std::printf("== Daemon vs batch: warm-cache compile service ==\n\n");

  // The compile-time subject of Table 1 (shrunk under --quick so CI stays
  // fast; the warm/cold ratio is what matters, not absolute seconds).
  apps::AppInstance SpSym =
      apps::makeSpLike(Quick ? 12 : 30, /*SymbolicProcs=*/true);
  std::string SpSource = hpf::printHpfProgram(*SpSym.Prog);

  // 1. Cold batch: what every standalone dhpfc invocation pays.
  coldStart();
  double ColdSecs = compileOnce("sp-sym", SpSource);
  std::printf("cold batch compile of sp-sym: %8.3f s\n", ColdSecs);

  // 2. Warm daemon: same request against a daemon that has already served
  // it once. Warm-up run heats the OpCache; min-of-2 damps timer noise.
  rt::DaemonOptions DO;
  DO.SocketPath =
      "/tmp/dhpf_bench_daemon." + std::to_string(::getpid()) + ".sock";
  DO.Quiet = true;
  rt::Daemon D(DO);
  D.start();
  compileOnDaemon(D, "sp-sym", SpSource, /*Fresh=*/true); // warm-up
  double Warm1 = compileOnDaemon(D, "sp-sym", SpSource, /*Fresh=*/true);
  double Warm2 = compileOnDaemon(D, "sp-sym", SpSource, /*Fresh=*/true);
  double WarmSecs = Warm1 < Warm2 ? Warm1 : Warm2;
  double Speedup = WarmSecs > 0 ? ColdSecs / WarmSecs : 0.0;
  std::printf("warm daemon recompile:        %8.3f s  (%.2fx vs cold "
              "batch; artifact cache bypassed)\n",
              WarmSecs, Speedup);

  // 3. Load generation: concurrent clients over a mixed workload.
  std::vector<std::pair<std::string, std::string>> Subjects = {
      {"jacobi", hpf::printHpfProgram(*apps::makeJacobi(64, 4).Prog)},
      {"tomcatv", hpf::printHpfProgram(*apps::makeTomcatv(64, 2).Prog)},
      {"erlebacher",
       hpf::printHpfProgram(*apps::makeErlebacher(32, 2).Prog)},
      {"gauss", hpf::printHpfProgram(*apps::makeGauss(32).Prog)},
  };
  unsigned Clients = Quick ? 4 : 8;
  unsigned Rounds = Quick ? 2 : 4;
  svc().clearArtifacts(); // load phase starts with no resident artifacts
  LoadResult L = runLoad(D, Subjects, Clients, Rounds);
  double HitRate =
      L.Requests ? double(L.DedupedInFlight + L.ArtifactHits) /
                       double(L.Requests)
                 : 0.0;
  std::printf("\nload: %u clients x %u rounds x %zu subjects\n", Clients,
              Rounds, Subjects.size());
  std::printf("  requests          %8llu\n",
              (unsigned long long)L.Requests);
  std::printf("  compiles started  %8llu\n",
              (unsigned long long)L.CompilesStarted);
  std::printf("  in-flight joins   %8llu\n",
              (unsigned long long)L.DedupedInFlight);
  std::printf("  artifact hits     %8llu\n",
              (unsigned long long)L.ArtifactHits);
  std::printf("  warm hit rate     %7.1f%%\n", 100.0 * HitRate);
  std::printf("  wall time         %8.3f s (%.1f requests/s)\n", L.WallSecs,
              L.WallSecs > 0 ? L.Requests / L.WallSecs : 0.0);

  D.stop();
  ::unlink(DO.SocketPath.c_str());

  if (Out) {
    std::FILE *F = std::fopen(Out, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Out);
      return 1;
    }
    std::fprintf(F, "{\n");
    std::fprintf(F, "  \"bench\": \"daemon\",\n");
    std::fprintf(F, "  \"quick\": %s,\n", Quick ? "true" : "false");
    std::fprintf(F, "  \"subject\": \"sp-sym\",\n");
    std::fprintf(F, "  \"cold_batch_s\": %.6f,\n", ColdSecs);
    std::fprintf(F, "  \"warm_daemon_s\": %.6f,\n", WarmSecs);
    std::fprintf(F, "  \"warm_speedup\": %.3f,\n", Speedup);
    std::fprintf(F, "  \"load\": {\n");
    std::fprintf(F, "    \"clients\": %u,\n", Clients);
    std::fprintf(F, "    \"rounds\": %u,\n", Rounds);
    std::fprintf(F, "    \"requests\": %llu,\n",
                 (unsigned long long)L.Requests);
    std::fprintf(F, "    \"compiles_started\": %llu,\n",
                 (unsigned long long)L.CompilesStarted);
    std::fprintf(F, "    \"deduped_inflight\": %llu,\n",
                 (unsigned long long)L.DedupedInFlight);
    std::fprintf(F, "    \"artifact_hits\": %llu,\n",
                 (unsigned long long)L.ArtifactHits);
    std::fprintf(F, "    \"hit_rate\": %.4f,\n", HitRate);
    std::fprintf(F, "    \"wall_s\": %.6f,\n", L.WallSecs);
    std::fprintf(F, "    \"requests_per_s\": %.2f\n",
                 L.WallSecs > 0 ? L.Requests / L.WallSecs : 0.0);
    std::fprintf(F, "  }\n");
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("\nwrote %s\n", Out);
  }

  if (Check) {
    // The acceptance bar is absolute (>= 2x), so a missing reference only
    // warns; the committed reference documents the recorded machine.
    if (RefSpeedup > 0)
      std::printf("check: warm speedup %.2fx vs reference %.2fx, floor "
                  "2.00x\n",
                  Speedup, RefSpeedup);
    if (Speedup < 2.0) {
      std::fprintf(stderr,
                   "CHECK FAILURE: warm daemon speedup %.2fx < 2.00x\n",
                   Speedup);
      return 1;
    }
  }
  return 0;
}
