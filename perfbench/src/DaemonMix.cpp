//===- perfbench/src/DaemonMix.cpp - A loaded dhpfd ----------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `daemon-mix` workload: a real `dhpfd` process on a private socket
/// serving 4 closed-loop client connections that replay a fixed request
/// sequence generated from the seed. In every block of 20 requests:
///
///   - 12 compile unchanged programs, which the artifact cache answers;
///   -  3 compile a seed-generated edit of a Figure 7 program (new extents
///      and step counts), a fresh compile on a warm OpCache;
///   -  5 run a canonical Figure 7 program with the serial check on.
///
/// It is the only workload where the service layer does the work: the
/// CompilerService artifact cache and in-flight dedup, net::MsgServer
/// framing and the daemon's per-connection threads. Fresh compiles (4
/// analysis threads each) compete for cores with the cheap requests, so a
/// change that speeds one class by slowing another moves p50 against p90.
///
/// Oracle: every compile reply is byte-identical to a local CompilerService
/// compile of the same source; every run reply reports `check ok` and
/// equals the local run summary of the same program.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "apps/Apps.h"
#include "core/CompilerService.h"
#include "core/InPlace.h"
#include "hpf/HpfPrinter.h"
#include "net/Server.h"
#include "rt/Daemon.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

using namespace dhpf;
using namespace perfbench;

namespace {

enum class Kind : uint8_t { Hit, Fresh, Run };
const char *kindName(Kind K) {
  return K == Kind::Hit ? "compile_hit" : K == Kind::Fresh ? "compile_fresh"
                                                           : "run";
}

struct Request {
  Kind K = Kind::Hit;
  unsigned Prog = 0;          ///< Hit: unchanged program; Run: canonical one
  std::string App;            ///< Fresh: which Figure 7 program to edit
  int64_t N = 0, Steps = 0;   ///< Fresh: the edit's extent and step count
};

struct Unchanged {
  std::string Name, Source, Spmd, Summary;
};

struct Done {
  Kind K;
  double Ms;
  bool Traced;
};

/// One fresh compile whose reply is verified after the timed loop.
struct FreshReply {
  std::string Name, Source, Spmd;
};

std::string editSource(const Request &R) {
  apps::AppInstance A = R.App == "jacobi"    ? apps::makeJacobi(R.N, R.Steps)
                        : R.App == "tomcatv" ? apps::makeTomcatv(R.N, R.Steps)
                        : R.App == "erlebacher"
                            ? apps::makeErlebacher(R.N, R.Steps)
                            : apps::makeGauss(R.N);
  return hpf::printHpfProgram(*A.Prog);
}

std::string editName(const Request &R) {
  return R.App + "-" + std::to_string(R.N) + "x" + std::to_string(R.Steps);
}

class DaemonMix : public Workload {
public:
  DaemonMix(const Options &O, Report &R) : Workload(O, R) {
    Dhpfd = O.BinDir + "/dhpfd/dhpfd";
    for (auto &[Name, Source] : compileSubjects(O.Smoke))
      Progs.push_back({Name, Source, "", ""});
  }

  void setup(bool) override {
    Daemon = std::make_unique<ChildProcess>(
        std::vector<std::string>{Dhpfd, "--socket=d.sock", "--quiet"},
        std::vector<std::string>{}, "dhpfd.log");
    if (!Daemon->started())
      throw std::runtime_error("cannot start dhpfd");
    for (unsigned C = 0; C != 4; ++C)
      Clients.push_back(net::connectClient("d.sock"));
    // Priming: every unchanged program compiled once, so the artifact
    // cache answers the unchanged-compile class from here on.
    for (Unchanged &U : Progs) {
      rt::DaemonCompileResult R = rt::daemonCompile(
          *Clients.front(), U.Name + ".hpf", U.Source, core::CompilerOptions());
      if (!R.Ok)
        throw std::runtime_error("priming compile of " + U.Name +
                                 " failed:\n" + R.DiagText);
      U.Spmd = R.Spmd;
    }
  }

  void prepareOracle() override {
    for (unsigned I = 0; I != Progs.size(); ++I) {
      Unchanged &U = Progs[I];
      std::string Local = localCompile(U.Name, U.Source);
      if (Local != U.Spmd)
        Rep.fail("priming reply for " + U.Name +
                 " differs from the local compile");
      U.Spmd = Local;
      if (I >= 2) // the canonical Figure 7 programs are the run requests
        U.Summary = localSummary(U);
    }
    if (Opts.TamperOracle)
      Progs[2].Summary[Progs[2].Summary.size() / 2] ^= 1;
    makeSequence();
  }

  void measure(double Seconds, bool Traced) override {
    obs::TraceBuffer &TB = obs::TraceBuffer::global();
    if (Traced)
      TB.start();
    size_t End = std::min(
        Seq.size(),
        Cursor + std::max(MinRequests, static_cast<size_t>(std::lround(
                                           RequestsPerSecond * Seconds))));
    std::atomic<size_t> Next{Cursor};
    std::mutex M;
    double T0 = nowS();
    auto Client = [&](unsigned C) {
      for (;;) {
        size_t I = Next.fetch_add(1);
        if (I >= End || (I - Cursor >= MinRequests && overBudget(T0, Seconds)))
          return;
        const Request &R = Seq[I];
        std::string Name, Source, Why, Reply;
        if (R.K == Kind::Fresh) {
          Name = editName(R);
          Source = editSource(R);
        } else {
          Name = Progs[R.Prog].Name;
          Source = Progs[R.Prog].Source;
        }
        double Q0 = nowS();
        try {
          obs::TraceSpan Span =
              benchSpan(std::string("perfbench:req.") + kindName(R.K));
          if (R.K == Kind::Run) {
            rt::SessionOptions SO;
            SO.NumProcs = 4;
            rt::DaemonRunResult DR =
                rt::daemonRun(*Clients[C], Progs[R.Prog].Spmd, SO, true);
            Why = !DR.Ok ? "run of " + Name + " failed: " + DR.Error
                  : DR.Summary != Progs[R.Prog].Summary
                      ? "run reply for " + Name +
                            " differs from the local summary"
                      : "";
          } else {
            rt::DaemonCompileResult CR = rt::daemonCompile(
                *Clients[C], Name + ".hpf", Source, core::CompilerOptions());
            Why = CR.Ok ? "" : "compile of " + Name + " failed";
            if (CR.Ok && R.K == Kind::Hit && CR.Spmd != Progs[R.Prog].Spmd)
              Why = "compile reply for " + Name +
                    " differs from the local compile";
            Reply = std::move(CR.Spmd);
          }
        } catch (const std::exception &E) {
          Why = std::string(kindName(R.K)) + " request failed: " + E.what();
        }
        double Ms = (nowS() - Q0) * 1e3;
        std::lock_guard<std::mutex> L(M);
        Finished.push_back({R.K, Ms, Traced});
        if (R.K == Kind::Fresh && Why.empty())
          FreshReplies.push_back({Name, std::move(Source), std::move(Reply)});
        else
          Rep.op(Why);
      }
    };
    std::vector<std::thread> Ts;
    for (unsigned C = 0; C != Clients.size(); ++C)
      Ts.emplace_back(Client, C);
    for (std::thread &T : Ts)
      T.join();
    double Wall = nowS() - T0;
    if (End - Cursor < MinRequests)
      Rep.fail("request sequence exhausted");
    Cursor = std::min(Next.load(), End);
    if (!Traced)
      UntracedWall += Wall;
    TB.stop();
    TB.clear();
  }

  void finish(bool TraceRun) override {
    verifyFresh();
    std::vector<double> All, Untraced, TracedMs;
    std::map<Kind, std::vector<double>> ByKind;
    for (const Done &D : Finished) {
      (D.Traced ? TracedMs : Untraced).push_back(D.Ms);
      if (!D.Traced) {
        All.push_back(D.Ms);
        ByKind[D.K].push_back(D.Ms);
      }
    }
    if (!TraceRun) {
      Rep.set("req_ms.p50", quantile(All, 0.5), "ms", All.size());
      Rep.set("req_ms.p90", quantile(All, 0.9), "ms", All.size());
      Rep.set("req_per_s", static_cast<double>(All.size()) / UntracedWall,
              "1/s", All.size());
      return;
    }
    for (Kind K : {Kind::Hit, Kind::Fresh, Kind::Run})
      Rep.set(std::string("rt.daemon.") + kindName(K) + "_ms.p50",
              quantile(ByKind[K], 0.5), "ms", ByKind[K].size());
    double Mean = 0, MeanT = 0;
    for (double V : Untraced)
      Mean += V / static_cast<double>(Untraced.size());
    for (double V : TracedMs)
      MeanT += V / static_cast<double>(TracedMs.size());
    Rep.set("obs.trace_overhead", Mean > 0 ? MeanT / Mean - 1 : 0, "ratio",
            TracedMs.size());
    // Service counters from the daemon's own stats request.
    std::string Stats = rt::daemonStats(*Clients.front());
    auto Stat = [&Stats](const std::string &Key) {
      std::istringstream In(Stats);
      std::string K;
      double V;
      while (In >> K >> V)
        if (K == Key)
          return V;
      return 0.0;
    };
    double Requests = Stat("requests");
    Rep.set("core.svc.artifact_hit_ratio",
            Requests > 0 ? Stat("artifact_hits") / Requests : 0, "ratio", 1);
    Rep.set("core.svc.dedup_inflight", Stat("deduped_inflight"), "count", 1);
    Rep.set("core.svc.compiles_started", Stat("compiles_started"), "count", 1);
  }

  void teardown() override {
    if (!Daemon)
      return;
    try {
      Clients.clear();
      rt::daemonShutdown(*net::connectClient("d.sock"));
    } catch (const std::exception &E) {
      Rep.fail(std::string("daemon shutdown: ") + E.what());
    }
    if (!Daemon->wait(10))
      Rep.fail("dhpfd did not exit cleanly");
    Daemon.reset();
  }

private:
  /// The run's request budget: --seconds worth of requests at the rate a
  /// 4-core machine sustains, so both sides of a comparison replay the
  /// same requests; at least MinRequests however short --seconds is.
  static constexpr double RequestsPerSecond = 100;
  static constexpr size_t MinRequests = 100;
  /// Sequence length in blocks of 20: room for 60 s of requests.
  static constexpr unsigned Blocks = 300;
  /// Fresh replies per run compared byte for byte with a local compile.
  static constexpr size_t FreshSample = 24;

  std::string Dhpfd;
  std::vector<Unchanged> Progs;
  std::unique_ptr<ChildProcess> Daemon;
  std::vector<std::unique_ptr<net::MsgStream>> Clients;
  std::vector<Request> Seq;
  size_t Cursor = 0;
  std::vector<Done> Finished;
  std::vector<FreshReply> FreshReplies;
  double UntracedWall = 0;

  std::string localCompile(const std::string &Name,
                           const std::string &Source) {
    core::CompileRequest R;
    R.Name = Name + ".hpf";
    R.Source = Source;
    auto A = core::CompilerService::global().compile(R);
    return A->Ok ? A->Spmd : "<compile failed>";
  }

  /// Fresh compile replies are checked here, outside the timed loop: every
  /// one must parse, and a seeded sample of them (local compiles cost as
  /// much as the daemon's) must be byte-identical to a local compile.
  void verifyFresh() {
    std::sort(FreshReplies.begin(), FreshReplies.end(),
              [](const FreshReply &A, const FreshReply &B) {
                return A.Name < B.Name;
              });
    std::vector<size_t> Sample(FreshReplies.size());
    for (size_t I = 0; I != Sample.size(); ++I)
      Sample[I] = I;
    Rng G(Opts.Seed * 31 + 7);
    std::shuffle(Sample.begin(), Sample.end(), G);
    Sample.resize(std::min<size_t>(Sample.size(), FreshSample));
    std::vector<std::string> Why(FreshReplies.size());
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T != 4; ++T)
      Ts.emplace_back([&, T] {
        for (size_t K = T; K < Sample.size(); K += 4) {
          const FreshReply &F = FreshReplies[Sample[K]];
          if (localCompile(F.Name, F.Source) != F.Spmd)
            Why[Sample[K]] = "fresh compile reply for " + F.Name +
                             " differs from the local compile";
        }
      });
    for (std::thread &T : Ts)
      T.join();
    for (size_t I = 0; I != FreshReplies.size(); ++I) {
      DiagnosticEngine Diags;
      if (Why[I].empty() &&
          !spmd::parseSpmdProgram(FreshReplies[I].Spmd, Diags, "<reply>"))
        Why[I] = "fresh compile reply for " + FreshReplies[I].Name +
                 " does not parse";
      Rep.op(Why[I]);
    }
  }

  std::string localSummary(const Unchanged &U) {
    DiagnosticEngine Diags;
    std::unique_ptr<spmd::SpmdProgram> SP =
        spmd::parseSpmdProgram(U.Spmd, Diags, U.Name + ".spmd");
    std::string Summary, Err;
    rt::SessionOptions SO;
    SO.NumProcs = 4;
    if (SP)
      SP->InPlaceRuntimeCheck = &core::checkInPlaceAtRuntime;
    if (!SP || !rt::runForSummary(*SP, SO, true, Summary, Err) ||
        Summary.find("check ok\n") == std::string::npos)
      Rep.fail("local run of " + U.Name + " is not a passing oracle: " +
               Err + Summary);
    return Summary;
  }

  /// The seed's request sequence, in blocks of 20 with a fixed make-up —
  /// 2 hits on each of the 6 unchanged programs, 3 fresh edits (rotating
  /// through the Figure 7 programs, extents and step counts from the seed,
  /// never repeated), a run of each canonical program plus one more — in
  /// a seed-shuffled order.
  void makeSequence() {
    Rng G(Opts.Seed * 7919 + 17);
    static const char *Apps[] = {"jacobi", "tomcatv", "erlebacher", "gauss"};
    std::set<std::tuple<std::string, int64_t, int64_t>> Used;
    auto Pick = [&G](int64_t Lo, int64_t Hi) {
      return std::uniform_int_distribution<int64_t>(Lo, Hi)(G);
    };
    unsigned Edits = 0;
    for (unsigned B = 0; B != Blocks; ++B) {
      std::vector<Request> Block;
      for (unsigned I = 0; I != 12; ++I)
        Block.push_back({Kind::Hit, I % 6, "", 0, 0});
      for (unsigned I = 0; I != 3; ++I) {
        Request R;
        R.K = Kind::Fresh;
        R.App = Apps[Edits++ % 4];
        do { // gauss has no step count, so it draws from more extents
          R.N = R.App == "gauss" ? Pick(12, 1011) : Pick(12, 131);
          R.Steps = R.App == "gauss" ? 1 : Pick(1, 8);
        } while (!Used.insert({R.App, R.N, R.Steps}).second);
        Block.push_back(R);
      }
      for (unsigned I = 0; I != 5; ++I)
        Block.push_back({Kind::Run, 2 + (I == 4 ? B % 4 : I), "", 0, 0});
      std::shuffle(Block.begin(), Block.end(), G);
      Seq.insert(Seq.end(), Block.begin(), Block.end());
    }
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeDaemonMix(const Options &O,
                                                   Report &R) {
  return std::make_unique<DaemonMix>(O, R);
}
