//===- perfbench/src/DistFig7.cpp - Distributed Figure 7 runs ------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `dist-fig7` workload: the four Figure 7 programs at compute-dominated
/// sizes, each compiled once in set-up by a batch `dhpfc compile`, then run
/// over and over two ways — as P=4 `dhpf_rt` processes over the Unix-socket
/// mesh (rt::launchRanks, native engine, warm private kernel cache) and
/// in-process (spmd::Interpreter, native engine). It is the only workload
/// where rank execution, transport, collectives and launch/merge do the
/// work and the set engine does none. jacobi and tomcatv are compute plus
/// halo exchange, erlebacher sends large pipelined messages, gauss many
/// small cyclic ones.
///
/// Oracle: one tree-interpreter run per program, done after set-up; every
/// launch and in-process run must match it bit for bit (arrays,
/// accumulators, message/byte/copy/statement counters, validity verdict).
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "apps/Apps.h"
#include "core/InPlace.h"
#include "hpf/HpfPrinter.h"
#include "rt/Launch.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

using namespace dhpf;
using namespace perfbench;

namespace {

/// Everything the timed operations need per program, plus its oracle.
struct Program {
  std::string Name;
  std::string Source;
  std::unique_ptr<spmd::SpmdProgram> SP;
  std::optional<rt::Session> S;
  spmd::RunResult Ref;
  std::map<std::string, std::vector<double>> RefArrays;
};

/// Per-program layer split of one traced launch (slowest rank).
struct LaunchSplit {
  double Run = 0, Compute = 0, Send = 0, Recv = 0, Finish = 0, CommSelf = 0,
         Reduce = 0, Overhead = 0, NativeSetup = 0, KernelBuild = 0;
};

/// Per-pass samples of the timed loop.
struct Pass {
  double Seconds = 0, LaunchS = 0, InprocS = 0;
  std::map<std::string, double> LaunchByProg;
  // Traced passes only.
  std::map<std::string, LaunchSplit> Split;
  double InprocSetup = 0, InprocRun = 0, InprocNative = 0;
  double Overlap = 0;
  uint64_t Messages = 0, Bytes = 0, CollFrames = 0, CollBytes = 0,
           CollMaxRank = 0, SpanCopies = 0, PackedCopies = 0;
};

std::string sameBits(const spmd::RunResult &A, const spmd::RunResult &B) {
  auto Num = [](const char *What, uint64_t X, uint64_t Y) {
    return std::string(What) + " " + std::to_string(X) + " vs oracle " +
           std::to_string(Y);
  };
  if (A.Messages != B.Messages)
    return Num("messages", A.Messages, B.Messages);
  if (A.Bytes != B.Bytes)
    return Num("bytes", A.Bytes, B.Bytes);
  if (A.SpanCopies != B.SpanCopies)
    return Num("span copies", A.SpanCopies, B.SpanCopies);
  if (A.PackedCopies != B.PackedCopies)
    return Num("packed copies", A.PackedCopies, B.PackedCopies);
  if (A.StmtInstances != B.StmtInstances)
    return Num("stmt instances", A.StmtInstances, B.StmtInstances);
  if (A.InPlaceRuntimeUpgrades != B.InPlaceRuntimeUpgrades)
    return Num("in-place upgrades", A.InPlaceRuntimeUpgrades,
               B.InPlaceRuntimeUpgrades);
  if (A.Valid != B.Valid || !A.Valid)
    return "validity verdict " + std::to_string(A.Valid) + " vs oracle " +
           std::to_string(B.Valid) +
           (A.Violations.empty() ? "" : ": " + A.Violations.front());
  if (A.FinalAccums.size() != B.FinalAccums.size())
    return "accumulator sets differ";
  for (const auto &[Name, V] : B.FinalAccums) {
    auto It = A.FinalAccums.find(Name);
    if (It == A.FinalAccums.end() ||
        std::memcmp(&It->second, &V, sizeof(double)) != 0)
      return "accumulator '" + Name + "' bits differ";
  }
  return "";
}

std::string sameArray(const std::string &Name, const std::vector<double> &A,
                      const std::vector<double> &Ref) {
  if (A.size() != Ref.size() ||
      std::memcmp(A.data(), Ref.data(), A.size() * sizeof(double)) != 0)
    return "array '" + Name + "' bits differ from the oracle";
  return "";
}

class DistFig7 : public Workload {
public:
  DistFig7(const Options &O, Report &R) : Workload(O, R) {
    RtBin = O.BinDir + "/dhpf_rt/dhpf_rt";
    Dhpfc = O.BinDir + "/dhpfc/dhpfc";
    // The rank processes resolve their engine from the environment.
    ::setenv("DHPF_SPMD_ENGINE", "native", 1);
    std::vector<apps::AppInstance> Apps;
    if (O.Smoke) {
      Apps.push_back(apps::makeJacobi(16, 3));
      Apps.push_back(apps::makeTomcatv(18, 3));
      Apps.push_back(apps::makeErlebacher(10, 2));
      Apps.push_back(apps::makeGauss(12));
    } else {
      Apps.push_back(apps::makeJacobi(512, 20));
      Apps.push_back(apps::makeTomcatv(258, 10));
      Apps.push_back(apps::makeErlebacher(64, 4));
      Apps.push_back(apps::makeGauss(128));
    }
    for (apps::AppInstance &A : Apps) {
      Program P;
      P.Name = A.Prog->name();
      P.Source = hpf::printHpfProgram(*A.Prog);
      Progs.push_back(std::move(P));
    }
  }

  void setup(bool Traced) override {
    for (Program &P : Progs) {
      std::string Hpf = P.Name + ".hpf", Spmd = P.Name + ".spmd";
      if (!writeFile(Hpf, P.Source))
        throw std::runtime_error("cannot write " + Hpf);
      std::vector<std::string> Argv = {Dhpfc, "compile", Hpf, "-o", Spmd};
      if (Traced)
        Argv.push_back("--metrics=" + P.Name + ".metrics");
      ProcResult C = runProcess(Argv);
      if (!C.Ok)
        throw std::runtime_error("dhpfc compile " + Hpf + " failed:\n" +
                                 C.Output);
      std::string Text;
      if (Traced && readFile(P.Name + ".metrics", Text))
        Layers.ColdMisses += metricValue(Text, "pset.cache.misses");
      if (!readFile(Spmd, Text))
        throw std::runtime_error("cannot read " + Spmd);
      DiagnosticEngine Diags;
      P.SP = spmd::parseSpmdProgram(Text, Diags, Spmd);
      if (!P.SP)
        throw std::runtime_error(Spmd + ": " + Diags.str());
      P.SP->InPlaceRuntimeCheck = &core::checkInPlaceAtRuntime;
      rt::SessionOptions SO;
      SO.NumProcs = 4;
      std::string Err;
      P.S = rt::resolveSession(*P.SP, SO, Err);
      if (!P.S)
        throw std::runtime_error(P.Name + ": " + Err);
    }
    // The first launch builds every kernel into the cold private cache.
    for (Program &P : Progs) {
      rt::LaunchResult LR = launch(P, Traced);
      if (!LR.Ok)
        throw std::runtime_error("first launch of " + P.Name + " failed:\n" +
                                 LR.Error);
      if (Traced)
        KernelBuildS += split(LR, 0).KernelBuild;
      FirstLaunch.push_back(std::move(LR.Merged));
    }
  }

  void prepareOracle() override {
    // Four independent tree-interpreter runs, one thread each.
    std::vector<std::thread> Ts;
    for (Program &P : Progs)
      Ts.emplace_back([&P] {
        spmd::RunConfig RC = P.S->Config;
        RC.Engine = spmd::EngineKind::Tree;
        RC.ExecThreads = 1;
        spmd::Interpreter I(*P.SP, RC);
        P.S->setup(*P.SP, I);
        P.Ref = I.run();
        for (const auto &[Name, A] : P.SP->Source->arrays())
          P.RefArrays[Name] = I.array(Name).values();
      });
    for (std::thread &T : Ts)
      T.join();
    if (Opts.TamperOracle) {
      std::vector<double> &V = Progs.front().RefArrays.begin()->second;
      uint64_t Bits;
      std::memcpy(&Bits, &V[V.size() / 2], sizeof(Bits));
      Bits ^= 1;
      std::memcpy(&V[V.size() / 2], &Bits, sizeof(Bits));
    }
    for (size_t I = 0; I != Progs.size(); ++I) {
      std::string Why = checkLaunch(Progs[I], FirstLaunch[I]);
      if (!Why.empty())
        Rep.fail("first launch of " + Progs[I].Name + ": " + Why);
    }
    FirstLaunch.clear();
  }

  void measure(double Seconds, bool Traced) override {
    obs::TraceBuffer &TB = obs::TraceBuffer::global();
    if (Traced) {
      TB.start();
      compileLayers();
    }
    double T0 = nowS();
    for (unsigned K = passesFor(Seconds, PassSeconds);
         K != 0 && !overBudget(T0, Seconds); --K) {
      Rng G(Opts.Seed * 1000003 + Passes.size() + TracedPasses.size());
      std::vector<Program *> Order;
      for (Program &P : Progs)
        Order.push_back(&P);
      std::shuffle(Order.begin(), Order.end(), G);
      if (Traced)
        TB.clear();
      Pass Ps;
      double P0 = nowS();
      for (Program *P : Order)
        runOnce(*P, Traced, Ps);
      Ps.Seconds = nowS() - P0;
      if (Traced) {
        SpanTimes In = spanTimes(spansOf(TB.snapshot()));
        Ps.InprocSetup = In.busy("perfbench:inproc.setup");
        Ps.InprocRun = In.busy("perfbench:inproc.run");
        Ps.InprocNative = In.busy("native:emit") + In.busy("native:dlopen");
        Ps.Overlap /= static_cast<double>(Progs.size());
        TracedPasses.push_back(std::move(Ps));
      } else {
        Passes.push_back(std::move(Ps));
      }
    }
    TB.stop();
    TB.clear();
  }

  void finish(bool TraceRun) override {
    size_t N = Passes.size();
    double LaunchS =
        median(column(Passes, [](const Pass &P) { return P.LaunchS; }));
    double InprocS =
        median(column(Passes, [](const Pass &P) { return P.InprocS; }));
    Rep.set("launch_s", LaunchS, "s", N);
    Rep.set("inproc_s", InprocS, "s", N);
    if (!TraceRun) {
      Ops.publish(Rep);
      return;
    }
    const std::vector<Pass> &T = TracedPasses;
    size_t NT = T.size();
    for (const Program &P : Progs) {
      const std::string &Nm = P.Name;
      Rep.set("rt.launch_s." + Nm,
              median(column(Passes, [&](const Pass &X) {
                return X.LaunchByProg.at(Nm);
              })),
              "s", N);
      auto PerProg = [&](const char *Metric, double LaunchSplit::*F) {
        Rep.set(std::string(Metric) + "." + Nm,
                median(column(T, [&](const Pass &X) {
                  return X.Split.at(Nm).*F;
                })),
                "s", NT);
      };
      PerProg("rt.rank.compute_s", &LaunchSplit::Compute);
      PerProg("rt.rank.comm_self_s", &LaunchSplit::CommSelf);
      PerProg("rt.rank.recv_wait_s", &LaunchSplit::Recv);
      PerProg("coll.reduce_s", &LaunchSplit::Reduce);
      PerProg("rt.launch.overhead_s", &LaunchSplit::Overhead);
    }
    auto Summed = [&](const char *Metric, double LaunchSplit::*F) {
      Rep.set(Metric, median(column(T, [&](const Pass &X) {
                double S = 0;
                for (const auto &[Nm, Sp] : X.Split)
                  S += Sp.*F;
                return S;
              })),
              "s", NT);
    };
    Summed("rt.rank.run_s", &LaunchSplit::Run);
    Summed("rt.rank.compute_s", &LaunchSplit::Compute);
    Summed("rt.rank.send_s", &LaunchSplit::Send);
    Summed("rt.rank.recv_wait_s", &LaunchSplit::Recv);
    Summed("rt.rank.finish_s", &LaunchSplit::Finish);
    Summed("rt.rank.comm_self_s", &LaunchSplit::CommSelf);
    Summed("rt.launch.overhead_s", &LaunchSplit::Overhead);
    Summed("coll.reduce_s", &LaunchSplit::Reduce);
    Rep.set("spmd.native.setup_s", median(column(T, [](const Pass &X) {
              double S = X.InprocNative;
              for (const auto &[Nm, Sp] : X.Split)
                S += Sp.NativeSetup;
              return S;
            })),
            "s", NT);
    Rep.set("spmd.kernel.build_s", KernelBuildS, "s", 1);
    publishCompileLayers(Rep, {Layers});
    Rep.set("spmd.inproc.setup_s",
            median(column(T, [](const Pass &X) { return X.InprocSetup; })), "s",
            NT);
    Rep.set("spmd.inproc.run_s",
            median(column(T, [](const Pass &X) { return X.InprocRun; })), "s",
            NT);
    Rep.set("rt.dist_over_inproc", InprocS > 0 ? LaunchS / InprocS : 0,
            "ratio", N);
    Rep.set("rt.overlap_ratio",
            median(column(T, [](const Pass &X) { return X.Overlap; })), "ratio",
            NT);
    const Pass &L = T.back();
    Rep.set("net.messages", static_cast<double>(L.Messages), "count", 1);
    Rep.set("net.bytes", static_cast<double>(L.Bytes), "bytes", 1);
    Rep.set("coll.frames", static_cast<double>(L.CollFrames), "count", 1);
    Rep.set("coll.bytes", static_cast<double>(L.CollBytes), "bytes", 1);
    Rep.set("coll.max_rank_frames", static_cast<double>(L.CollMaxRank),
            "count", 1);
    Rep.set("spmd.span_copies", static_cast<double>(L.SpanCopies), "count", 1);
    Rep.set("spmd.packed_copies", static_cast<double>(L.PackedCopies), "count",
            1);
    double Untraced =
        median(column(Passes, [](const Pass &X) { return X.Seconds; }));
    double Traced = median(column(T, [](const Pass &X) { return X.Seconds; }));
    Rep.set("obs.trace_overhead", Untraced > 0 ? Traced / Untraced - 1 : 0,
            "ratio", NT);
  }

private:
  /// One pass (four launches, four in-process runs) takes about this long
  /// on a 4-core machine.
  static constexpr double PassSeconds = 2.5;

  std::string RtBin, Dhpfc;
  std::vector<Program> Progs;
  std::vector<rt::MergedRun> FirstLaunch;
  std::vector<Pass> Passes, TracedPasses;
  OpLatencies Ops;
  double KernelBuildS = 0;
  CompileLayers Layers;
  bool FaultInjected = false;

  spmd::RunConfig nativeConfig(const Program &P) const {
    spmd::RunConfig RC = P.S->Config;
    RC.Engine = spmd::EngineKind::Native;
    return RC;
  }

  /// The compile-layer split of this workload's own programs, outside
  /// the timed passes: the counts (communication events, contiguous
  /// messages) that shape every launch.
  void compileLayers() {
    obs::TraceBuffer &TB = obs::TraceBuffer::global();
    TB.clear();
    for (const Program &P : Progs) {
      double Secs = 0;
      std::string Err;
      if (Layers.compile(P.Name + ".hpf", P.Source, Secs, Err).empty())
        Rep.fail("in-process compile of " + P.Name + " failed:\n" + Err);
    }
    Layers.takeSpans(spanTimes(spansOf(TB.snapshot())));
    TB.clear();
  }

  rt::LaunchResult launch(const Program &P, bool Traced) {
    rt::LaunchOptions LO;
    LO.SpmdPath = P.Name + ".spmd";
    LO.RtBinary = RtBin;
    LO.TimeoutMs = 60000;
    LO.Trace = Traced;
    return rt::launchRanks(*P.SP, *P.S, LO);
  }

  std::string checkLaunch(const Program &P, const rt::MergedRun &M) const {
    std::string Why = sameBits(M.R, P.Ref);
    for (auto It = P.RefArrays.begin(); Why.empty() && It != P.RefArrays.end();
         ++It) {
      auto A = M.Arrays.find(It->first);
      Why = A == M.Arrays.end()
                ? "array '" + It->first + "' missing"
                : sameArray(It->first, A->second.values(), It->second);
    }
    return Why;
  }

  /// The slowest rank's layer split of one launch (rank traces parsed from
  /// the documents launchRanks collected), and the launch overhead.
  LaunchSplit split(const rt::LaunchResult &LR, double WallS) const {
    LaunchSplit Slow;
    double SlowSpan = -1, MaxNative = 0, MaxBuild = 0;
    for (const std::string &Doc : LR.RankTraces) {
      SpanTimes T = spanTimes(parseChromeTrace(Doc));
      LaunchSplit S;
      S.Run = T.busy("rank:run");
      S.Finish = T.busy("rank:finish");
      S.Compute = T.busy("compute:");
      S.Send = T.busy("send");
      S.Recv = T.busy("recv");
      S.Reduce = T.busy("reduce:");
      S.CommSelf = T.self("rank:run");
      MaxNative =
          std::max(MaxNative, T.busy("native:emit") + T.busy("native:dlopen"));
      MaxBuild = std::max(MaxBuild, T.busy("native:compile"));
      if (S.Run + S.Finish > SlowSpan) {
        SlowSpan = S.Run + S.Finish;
        Slow = S;
      }
    }
    Slow.NativeSetup = MaxNative;
    Slow.KernelBuild = MaxBuild;
    Slow.Overhead = std::max(0.0, WallS - Slow.Run - Slow.Finish);
    return Slow;
  }

  void runOnce(Program &P, bool Traced, Pass &Ps) {
    bool Fault = !Opts.InjectFault.empty() && !FaultInjected;
    if (Fault) {
      ::setenv("DHPF_NET_FAULT", Opts.InjectFault.c_str(), 1);
      ::setenv("DHPF_NET_TIMEOUT_MS", "2000", 1);
      FaultInjected = true;
    }
    double T0 = nowS();
    rt::LaunchResult LR = launch(P, Traced);
    double LaunchS = nowS() - T0;
    if (Fault) {
      ::unsetenv("DHPF_NET_FAULT");
      ::unsetenv("DHPF_NET_TIMEOUT_MS");
    }
    Rep.op(LR.Ok ? checkLaunch(P, LR.Merged)
                 : "launch of " + P.Name + " failed: " + LR.Error);
    Ops.add("launch:" + P.Name, LaunchS);
    Ps.LaunchS += LaunchS;
    Ps.LaunchByProg[P.Name] = LaunchS;
    if (Traced) {
      Ps.Split[P.Name] = split(LR, LaunchS);
      const spmd::RunResult &R = LR.Merged.R;
      Ps.Overlap += R.OverlapRatio;
      Ps.Messages += R.Messages;
      Ps.Bytes += R.Bytes;
      Ps.CollFrames += R.CollMessages;
      Ps.CollBytes += R.CollBytes;
      Ps.CollMaxRank += LR.Merged.MaxRankCollMessages;
      Ps.SpanCopies += R.SpanCopies;
      Ps.PackedCopies += R.PackedCopies;
    }

    T0 = nowS();
    std::string Why;
    {
      std::optional<spmd::Interpreter> I;
      {
        obs::TraceSpan Span = benchSpan("perfbench:inproc.setup");
        I.emplace(*P.SP, nativeConfig(P));
        P.S->setup(*P.SP, *I);
      }
      spmd::RunResult R;
      {
        obs::TraceSpan Span = benchSpan("perfbench:inproc.run");
        R = I->run();
      }
      double InprocS = nowS() - T0;
      Why = sameBits(R, P.Ref);
      for (auto It = P.RefArrays.begin();
           Why.empty() && It != P.RefArrays.end(); ++It)
        Why = sameArray(It->first, I->array(It->first).values(), It->second);
      Ops.add("inproc:" + P.Name, InprocS);
      Ps.InprocS += InprocS;
    }
    Rep.op(Why.empty() ? "" : "in-process run of " + P.Name + ": " + Why);
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeDistFig7(const Options &O,
                                                  Report &R) {
  return std::make_unique<DistFig7>(O, R);
}
