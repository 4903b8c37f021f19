//===- perfbench/src/main.cpp - The repository benchmark program ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one named workload against the shipped libraries and binaries:
///
///   perfbench --workload <dist-fig7|compile-table1|daemon-mix>
///             --seed N --seconds S --trace 0|1 --bin-dir DIR
///
/// and prints one JSON object (the last line of stdout) with the outcome,
/// every metric with its unit and sample count, and the run's stamps.
/// perfbench/run.py builds the program, isolates the run in a private
/// directory and reformats this object into the benchmark's result line.
///
/// setup_s is the median of SetupSamples set-ups: this process's own plus
/// fresh child processes (`--setup-only`), each in its own directory, so
/// every sample starts from the same cold caches.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "spmd/KernelCache.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <thread>

using namespace perfbench;

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <dist-fig7|compile-table1|"
               "daemon-mix> --seed N --seconds S --trace 0|1 --bin-dir DIR\n"
               "                 [--setup-only] [--setup-samples K] "
               "[--smoke] [--inject-fault SPEC] [--tamper-oracle]\n";
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (A == "--workload") {
      if (!Next(O.Workload))
        return false;
    } else if (A == "--seed") {
      if (!Next(V))
        return false;
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--seconds") {
      if (!Next(V))
        return false;
      O.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (A == "--trace") {
      if (!Next(V))
        return false;
      O.Trace = V == "1";
    } else if (A == "--bin-dir") {
      if (!Next(O.BinDir))
        return false;
    } else if (A == "--setup-samples") {
      if (!Next(V))
        return false;
      O.SetupSamples = static_cast<unsigned>(std::strtoul(V.c_str(), nullptr,
                                                          10));
    } else if (A == "--inject-fault") {
      if (!Next(O.InjectFault))
        return false;
    } else if (A == "--setup-only") {
      O.SetupOnly = true;
    } else if (A == "--smoke") {
      O.Smoke = true;
    } else if (A == "--tamper-oracle") {
      O.TamperOracle = true;
    } else {
      return false;
    }
  }
  return !O.Workload.empty() && !O.BinDir.empty() && O.Seconds > 0 &&
         O.SetupSamples >= 1;
}

std::unique_ptr<Workload> makeWorkload(const Options &O, Report &R) {
  if (O.Workload == "dist-fig7")
    return makeDistFig7(O, R);
  if (O.Workload == "compile-table1")
    return makeCompileTable1(O, R);
  if (O.Workload == "daemon-mix")
    return makeDaemonMix(O, R);
  return nullptr;
}

/// One set-up sample in a fresh child process, in its own directory with
/// its own TMPDIR and kernel cache. Returns the child's set-up seconds.
double childSetup(const Options &O, unsigned K, Report &R) {
  std::string Dir = "setup" + std::to_string(K);
  removeTree(Dir);
  if (!makeDir(Dir) || !makeDir(Dir + "/tmp")) {
    R.fail("cannot create " + Dir);
    return 0;
  }
  std::vector<std::string> Argv = {
      "/proc/self/exe", "--workload",   O.Workload,
      "--seed",         std::to_string(O.Seed), "--seconds",
      "1",              "--bin-dir",    O.BinDir,
      "--setup-only"};
  if (O.Smoke)
    Argv.push_back("--smoke");
  ProcResult P = runProcess(Argv, {"TMPDIR=tmp", "DHPF_KERNEL_CACHE=kc"}, Dir);
  double Secs = 0;
  size_t At = P.Output.rfind("setup_s ");
  if (P.Ok && At != std::string::npos)
    Secs = std::strtod(P.Output.c_str() + At + 8, nullptr);
  else
    R.fail("set-up sample " + std::to_string(K) + " failed:\n" + P.Output);
  std::vector<std::string> Left = listDir(Dir + "/tmp");
  if (!Left.empty())
    R.fail("set-up sample " + std::to_string(K) + " left " + Left.front() +
           " in its TMPDIR");
  removeTree(Dir);
  return Secs;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return usage();
  // A daemon or rank vanishing mid-write must surface as an error, not
  // kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);

  Report R;
  std::unique_ptr<Workload> W = makeWorkload(O, R);
  if (!W) {
    std::cerr << "perfbench: unknown workload '" << O.Workload << "'\n";
    return 2;
  }

  if (O.SetupOnly) {
    int Rc = 0;
    try {
      double T0 = nowS();
      W->setup(false);
      std::printf("setup_s %.9f\n", nowS() - T0);
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", E.what());
      Rc = 1;
    }
    W->teardown();
    std::fflush(stdout);
    return R.failed() || Rc ? 1 : 0;
  }

  R.stamp("workload", O.Workload);
  R.stamp("seed", std::to_string(O.Seed));
  R.stamp("hardware_concurrency",
          std::to_string(std::thread::hardware_concurrency()));
  R.stamp("kernel_cc", dhpf::spmd::native::KernelCache::compilerCommand() +
                           ": " +
                           dhpf::spmd::native::KernelCache::global()
                               .compilerVersion());
  R.stamp("build_type", PERFBENCH_BUILD_TYPE);

  int Rc = 0;
  try {
    // Traced runs report no setup_s, so they take no extra set-up samples.
    std::vector<double> SetupS;
    for (unsigned K = 1; !O.Trace && K < O.SetupSamples; ++K)
      SetupS.push_back(childSetup(O, K, R));
    double T0 = nowS();
    W->setup(O.Trace);
    SetupS.push_back(nowS() - T0);
    W->prepareOracle();
    if (!O.Trace) {
      W->measure(O.Seconds, false);
      W->finish(false);
      R.set("setup_s", median(SetupS), "s", SetupS.size());
    } else {
      // The same operations untraced, then traced: the per-layer split
      // comes from the second half, obs.trace_overhead from both.
      W->measure(O.Seconds / 2, false);
      W->measure(O.Seconds / 2, true);
      W->finish(true);
    }
  } catch (const std::exception &E) {
    R.fail(std::string("aborted: ") + E.what());
    Rc = 1;
  }
  W->teardown();
  if (!O.Trace)
    R.set("peak_rss_mb", peakRssMb(), "MB", 1);
  std::cout << R.json() << std::endl;
  return Rc;
}
