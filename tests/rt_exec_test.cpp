//===- tests/rt_exec_test.cpp - Distributed rank runtime tests -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distributed runtime's core claim: P cooperating rank interpreters
/// (the plan executor over rt::TransportComm) — over the loopback mesh AND
/// over real Unix sockets — produce results bit-identical to the in-process
/// engines, for all four Figure 7 benchmarks at P in {1, 4}. The comparison
/// goes through the full result pipeline (dump -> serialize -> parse ->
/// merge), so the rank-dump text format is covered by the same assertions.
/// Reductions gather to rank 0 and broadcast back with the in-process
/// rank-order fold. Fault-injected runs must die with a named-rank
/// diagnostic under the watchdog, never hang, and hostile comm-event frames
/// must be diagnosed.
///
//===----------------------------------------------------------------------===//

#include "apps/Registry.h"
#include "core/Compiler.h"
#include "net/Loopback.h"
#include "net/Socket.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "rt/RankResult.h"
#include "rt/TransportComm.h"
#include "spmd/ExecPlan.h"
#include "spmd/Layout.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace dhpf;

namespace {

struct Subject {
  apps::AppInstance App;
  std::vector<int64_t> Shape1; ///< P=1 processor-array extents
  std::vector<int64_t> Shape4; ///< P=4 processor-array extents
};

std::vector<Subject> subjects() {
  std::vector<Subject> S;
  S.push_back({apps::makeJacobi(8, 2), {1, 1}, {2, 2}});
  S.push_back({apps::makeTomcatv(10, 2), {1}, {4}});
  S.push_back({apps::makeErlebacher(8, 2), {1}, {4}});
  S.push_back({apps::makeGauss(8), {1, 1}, {2, 2}});
  return S;
}

enum class Mesh { Loopback, Socket };

/// Runs \p SP distributed on \p Mesh with one thread per rank, pushes every
/// rank's result through the dump text round trip, and merges. Any rank
/// error fails the test.
rt::MergedRun runDistributed(const spmd::SpmdProgram &SP,
                             const apps::AppInstance &App,
                             const spmd::RunConfig &RC, Mesh Kind) {
  spmd::ProgramLayout L = spmd::resolveLayout(SP, RC);
  unsigned NP = L.NumProcs;

  std::string Dir;
  std::unique_ptr<net::LoopbackMesh> Loop;
  if (Kind == Mesh::Loopback) {
    Loop = std::make_unique<net::LoopbackMesh>(NP);
  } else {
    char Buf[] = "/tmp/dhpf_rt_test_XXXXXX";
    const char *D = mkdtemp(Buf);
    EXPECT_NE(D, nullptr);
    Dir = D ? D : "";
  }

  std::vector<std::string> Dumps(NP), Errs(NP);
  std::vector<std::thread> Ts;
  for (unsigned R = 0; R != NP; ++R)
    Ts.emplace_back([&, R] {
      try {
        std::unique_ptr<net::Transport> T;
        if (Kind == Mesh::Loopback) {
          T = Loop->transport(R);
        } else {
          net::SocketOptions Opts;
          Opts.MeshDir = Dir;
          T = net::connectSocketMesh(R, NP, Opts);
        }
        rt::TransportComm C(*T);
        spmd::Interpreter I(SP, RC, C);
        App.Setup(I);
        spmd::RunResult RR = I.run();
        Dumps[R] = rt::serializeRankDump(rt::dumpRank(I, *T, RR));
      } catch (const std::exception &Ex) {
        Errs[R] = Ex.what();
      }
    });
  for (auto &T : Ts)
    T.join();
  if (!Dir.empty()) {
    for (unsigned R = 0; R != NP; ++R)
      unlink((Dir + "/rank" + std::to_string(R) + ".sock").c_str());
    rmdir(Dir.c_str());
  }

  rt::MergedRun Merged;
  for (unsigned R = 0; R != NP; ++R)
    EXPECT_EQ(Errs[R], "") << "rank " << R;
  std::vector<rt::RankDump> Parsed;
  for (unsigned R = 0; R != NP; ++R) {
    rt::RankDump D;
    std::string Err;
    EXPECT_TRUE(rt::parseRankDump(Dumps[R], D, Err)) << Err;
    Parsed.push_back(std::move(D));
  }
  std::string Err;
  EXPECT_TRUE(rt::mergeRankDumps(SP, RC, Parsed, Merged, Err)) << Err;
  return Merged;
}

void expectBitIdentical(const rt::MergedRun &Dist,
                        const spmd::RunResult &Ref,
                        const spmd::Interpreter &I) {
  EXPECT_EQ(Dist.R.Messages, Ref.Messages);
  EXPECT_EQ(Dist.R.Bytes, Ref.Bytes);
  EXPECT_EQ(Dist.R.StmtInstances, Ref.StmtInstances);
  EXPECT_EQ(Dist.R.SpanCopies, Ref.SpanCopies);
  EXPECT_EQ(Dist.R.PackedCopies, Ref.PackedCopies);
  EXPECT_EQ(Dist.R.InPlaceRuntimeUpgrades, Ref.InPlaceRuntimeUpgrades);
  EXPECT_EQ(Dist.R.Valid, Ref.Valid);
  ASSERT_EQ(Dist.R.FinalAccums.size(), Ref.FinalAccums.size());
  for (const auto &[Name, V] : Ref.FinalAccums) {
    auto It = Dist.R.FinalAccums.find(Name);
    ASSERT_NE(It, Dist.R.FinalAccums.end()) << Name;
    EXPECT_EQ(0, std::memcmp(&It->second, &V, sizeof(double))) << Name;
  }
  for (const auto &[Name, A] : Dist.Arrays) {
    const spmd::ArrayStore &B = I.array(Name);
    ASSERT_EQ(A.size(), B.size()) << Name;
    EXPECT_EQ(0, std::memcmp(A.values().data(), B.values().data(),
                             A.size() * sizeof(double)))
        << Name;
  }
}

void checkApp(const Subject &S, const std::vector<int64_t> &Shape) {
  auto Compiled = core::compileProgram(*S.App.Prog);
  ASSERT_TRUE(Compiled);
  const spmd::SpmdProgram &SP = Compiled->Program;

  spmd::RunConfig RC;
  RC.ProcExtents[S.App.ProcArrayName] = Shape;

  spmd::Interpreter I(SP, RC);
  S.App.Setup(I);
  spmd::RunResult Ref = I.run();
  ASSERT_TRUE(Ref.Valid);

  rt::MergedRun Loop = runDistributed(SP, S.App, RC, Mesh::Loopback);
  expectBitIdentical(Loop, Ref, I);

  rt::MergedRun Sock = runDistributed(SP, S.App, RC, Mesh::Socket);
  expectBitIdentical(Sock, Ref, I);

  // Loopback and socket must also agree with each other on the merged
  // counters (they already both equal Ref; this documents the oracle).
  EXPECT_EQ(Loop.R.Messages, Sock.R.Messages);
  EXPECT_EQ(Loop.R.Bytes, Sock.R.Bytes);
}

TEST(RtExec, JacobiP1) { checkApp(subjects()[0], subjects()[0].Shape1); }
TEST(RtExec, JacobiP4) { checkApp(subjects()[0], subjects()[0].Shape4); }
TEST(RtExec, TomcatvP1) { checkApp(subjects()[1], subjects()[1].Shape1); }
TEST(RtExec, TomcatvP4) { checkApp(subjects()[1], subjects()[1].Shape4); }
TEST(RtExec, ErlebacherP1) { checkApp(subjects()[2], subjects()[2].Shape1); }
TEST(RtExec, ErlebacherP4) { checkApp(subjects()[2], subjects()[2].Shape4); }
TEST(RtExec, GaussP1) { checkApp(subjects()[3], subjects()[3].Shape1); }
TEST(RtExec, GaussP4) { checkApp(subjects()[3], subjects()[3].Shape4); }

/// At P=8 the reductions stay bit-identical to the in-process engine over
/// both meshes, and the merged frame counters pin the gather/broadcast
/// schedule: the 3 reduce instances of canonical jacobi (3 time steps)
/// cost rank 0 2(P-1) = 14 frames each and every other rank 2, 8 bytes
/// apiece.
TEST(RtExec, CollectiveAlgorithmsBitIdenticalAtP8) {
  apps::AppInstance App = apps::makeJacobi(16, 3); // on a 2x4 mesh
  auto Compiled = core::compileProgram(*App.Prog);
  ASSERT_TRUE(Compiled);
  const spmd::SpmdProgram &SP = Compiled->Program;
  spmd::RunConfig RC;
  RC.ProcExtents[App.ProcArrayName] = {2, 4};

  spmd::Interpreter I(SP, RC);
  App.Setup(I);
  spmd::RunResult Ref = I.run();
  ASSERT_TRUE(Ref.Valid);

  for (Mesh Kind : {Mesh::Loopback, Mesh::Socket}) {
    rt::MergedRun M = runDistributed(SP, App, RC, Kind);
    expectBitIdentical(M, Ref, I);
    EXPECT_EQ(M.R.CollMessages, 84u);
    EXPECT_EQ(M.R.CollBytes, 672u);
    EXPECT_EQ(M.MaxRankCollMessages, 42u);
  }
}

//===----------------------------------------------------------------------===//
// TransportComm::allReduce on its own, over the loopback mesh
//===----------------------------------------------------------------------===//

/// The in-process fold: the identity, then the contributions in rank order.
double rankOrderFold(const std::vector<double> &C, bool Max) {
  double V = Max ? -std::numeric_limits<double>::infinity() : 0.0;
  for (double X : C)
    V = Max ? std::max(V, X) : V + X;
  return V;
}

/// Contributions of wildly mixed magnitude and sign: summing these in any
/// order other than 0..P-1 yields different low-order bits, so a reduction
/// that combined along its data path would be caught.
std::vector<double> spikyContributions(unsigned NP) {
  std::vector<double> C(NP);
  for (unsigned R = 0; R != NP; ++R)
    C[R] = std::sin(1.7 * R + 0.3) *
           std::pow(10.0, static_cast<int>(R % 7) - 3);
  return C;
}

struct ReduceOutcome {
  std::vector<double> Results; ///< one per reduce instance
  uint64_t Frames = 0;         ///< RunResult::CollMessages
  std::string Err;
};

/// All NP ranks run \p Instances successive reductions of \p C, each rank
/// contributing C[rank], then finish.
std::vector<ReduceOutcome> runAllReduce(unsigned NP,
                                        const std::vector<double> &C,
                                        bool Max, unsigned Instances = 1) {
  spmd::PlanNode N;
  N.K = spmd::SpmdNode::Kind::Reduce;
  N.RedOp = Max ? spmd::SpmdNode::ReduceOp::Max : spmd::SpmdNode::ReduceOp::Sum;
  N.RedName = "acc";
  net::LoopbackMesh Mesh(NP);
  std::vector<ReduceOutcome> Out(NP);
  std::vector<std::thread> Ts;
  for (unsigned R = 0; R != NP; ++R)
    Ts.emplace_back([&, R] {
      try {
        auto T = Mesh.transport(R);
        rt::TransportComm Comm(*T, nullptr);
        for (unsigned I = 0; I != Instances; ++I)
          Out[R].Results.push_back(Comm.allReduce(N, {C[R]}));
        spmd::RunResult RR;
        Comm.finish(RR);
        Out[R].Frames = RR.CollMessages;
      } catch (const std::exception &E) {
        Out[R].Err = E.what();
      }
    });
  for (auto &T : Ts)
    T.join();
  return Out;
}

void expectBitEqual(double A, double B, const std::string &What) {
  EXPECT_EQ(std::memcmp(&A, &B, sizeof(double)), 0)
      << What << ": " << A << " vs " << B;
}

TEST(CollBits, MatchesRankOrderFold) {
  for (unsigned NP : {1u, 2u, 3u, 4u, 5u, 8u}) {
    std::vector<double> C = spikyContributions(NP);
    for (bool Max : {false, true}) {
      double Ref = rankOrderFold(C, Max);
      std::vector<ReduceOutcome> Out = runAllReduce(NP, C, Max);
      for (unsigned R = 0; R != NP; ++R) {
        std::string What = std::string(Max ? "max" : "sum") + " P=" +
                           std::to_string(NP) + " rank " + std::to_string(R);
        EXPECT_EQ(Out[R].Err, "") << What;
        ASSERT_EQ(Out[R].Results.size(), 1u) << What;
        expectBitEqual(Out[R].Results[0], Ref, What);
      }
    }
  }
}

TEST(CollBits, SuccessiveInstancesStayOrderedAtNonPowerOfTwo) {
  // Back-to-back reductions on a non-power-of-two mesh: one instance's
  // frames must not bleed into the next (fresh tag per instance).
  const unsigned NP = 6, Instances = 5;
  std::vector<double> C = spikyContributions(NP);
  double Ref = rankOrderFold(C, /*Max=*/false);
  std::vector<ReduceOutcome> Out = runAllReduce(NP, C, false, Instances);
  for (unsigned R = 0; R != NP; ++R) {
    EXPECT_EQ(Out[R].Err, "") << "rank " << R;
    ASSERT_EQ(Out[R].Results.size(), Instances);
    for (double V : Out[R].Results)
      expectBitEqual(V, Ref, "rank " + std::to_string(R));
  }
}

TEST(CollSchedule, NaiveBottlenecksRankZero) {
  const unsigned NP = 8;
  std::vector<ReduceOutcome> Out =
      runAllReduce(NP, spikyContributions(NP), false);
  for (const ReduceOutcome &O : Out)
    EXPECT_EQ(O.Err, "");
  EXPECT_EQ(Out[0].Frames, 2u * (NP - 1));
  for (unsigned R = 1; R != NP; ++R)
    EXPECT_EQ(Out[R].Frames, 2u) << "rank " << R;
}

/// A rank's compute pumps the transport every 256 statement instances,
/// under bytecode and native kernels alike (the Figure 4 overlap window):
/// each rank pumps floor(its instances / 256) times, the counter carrying
/// over from one compute node to the next.
TEST(RtExec, ComputePumpsProgressEvery256Statements) {
  if (!obs::compiledIn())
    GTEST_SKIP() << "metrics compiled out";
  apps::AppInstance App = apps::makeJacobi(32, 2);
  auto Compiled = core::compileProgram(*App.Prog);
  ASSERT_TRUE(Compiled);
  const spmd::SpmdProgram &SP = Compiled->Program;
  obs::Counter *Pumps =
      obs::MetricsRegistry::global().counter("rt.comm.progress_calls");
  for (spmd::EngineKind E :
       {spmd::EngineKind::Bytecode, spmd::EngineKind::Native}) {
    spmd::RunConfig RC;
    RC.ProcExtents[App.ProcArrayName] = {2, 2};
    RC.Engine = E;
    uint64_t Before = Pumps->value();
    rt::MergedRun M = runDistributed(SP, App, RC, Mesh::Loopback);
    uint64_t Calls = Pumps->value() - Before, Stmts = M.R.StmtInstances;
    EXPECT_GT(Calls, 0u);
    EXPECT_LE(Calls * 256, Stmts);
    EXPECT_GE(Calls * 256 + 4 * 255, Stmts);
  }
}

/// Rank-dump parser: malformed dumps are line-numbered errors, and a dump
/// cut off mid-array is flagged as a likely mid-dump death.
TEST(RtDump, ParserDiagnosesTruncation) {
  rt::RankDump D;
  std::string Err;
  EXPECT_FALSE(rt::parseRankDump("", D, Err));
  EXPECT_NE(Err.find("missing rankdump header"), std::string::npos) << Err;

  std::string NoEnd = "rankdump 0 2\nvalid 1\n";
  EXPECT_FALSE(rt::parseRankDump(NoEnd, D, Err));
  EXPECT_NE(Err.find("mid-dump"), std::string::npos) << Err;

  std::string CutArray =
      "rankdump 0 2\nvalid 1\narray U 3\ne 0 0000000000000000\n";
  EXPECT_FALSE(rt::parseRankDump(CutArray, D, Err));
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;

  std::string BadLine = "rankdump 0 2\nwhatisthis 5\n";
  EXPECT_FALSE(rt::parseRankDump(BadLine, D, Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
}

/// Per-rank trace buffers wired through TransportComm: the comm emits one
/// "send" complete event at exactly the sites that bump
/// RunResult::Messages, so per-rank send-span counts equal the per-rank
/// message counters, the merged timeline's total equals the summed
/// counter, and all four rank lanes survive the merge. With DHPF_OBS=OFF
/// the same run records nothing at all.
TEST(RtExec, TraceSendEventsMatchMessageCounters) {
  Subject S = std::move(subjects()[0]); // jacobi on a 2x2 mesh
  auto Compiled = core::compileProgram(*S.App.Prog);
  ASSERT_TRUE(Compiled);
  const spmd::SpmdProgram &SP = Compiled->Program;
  spmd::RunConfig RC;
  RC.ProcExtents[S.App.ProcArrayName] = {2, 2};

  net::LoopbackMesh Mesh(4);
  obs::TraceBuffer Bufs[4];
  uint64_t Msgs[4] = {};
  std::vector<std::string> Errs(4);
  std::vector<std::thread> Ts;
  for (unsigned R = 0; R != 4; ++R)
    Ts.emplace_back([&, R] {
      try {
        Bufs[R].setLane(R + 1, "rank " + std::to_string(R));
        Bufs[R].start();
        auto T = Mesh.transport(R);
        rt::TransportComm C(*T, &Bufs[R]);
        spmd::Interpreter I(SP, RC, C);
        S.App.Setup(I);
        Msgs[R] = I.run().Messages;
      } catch (const std::exception &Ex) {
        Errs[R] = Ex.what();
      }
    });
  for (auto &T : Ts)
    T.join();
  for (unsigned R = 0; R != 4; ++R)
    ASSERT_EQ(Errs[R], "") << "rank " << R;

  if (!obs::compiledIn()) {
    for (const obs::TraceBuffer &B : Bufs)
      EXPECT_EQ(B.eventCount(), 0u);
    return;
  }

  uint64_t TotalSends = 0, TotalRecvs = 0, TotalMsgs = 0;
  for (unsigned R = 0; R != 4; ++R) {
    uint64_t Sends = 0;
    for (const obs::TraceEvent &E : Bufs[R].snapshot()) {
      Sends += E.Name == "send" && E.Ph == 'X';
      TotalRecvs += E.Name == "recv" && E.Ph == 'X';
    }
    EXPECT_EQ(Sends, Msgs[R]) << "rank " << R;
    TotalSends += Sends;
    TotalMsgs += Msgs[R];
  }
  EXPECT_GT(TotalSends, 0u);
  EXPECT_GT(TotalRecvs, 0u);
  EXPECT_EQ(TotalSends, TotalMsgs);

  // The stitched timeline: one valid document, every rank's lane labeled,
  // and event counts preserved by the merge.
  std::vector<std::string> Docs;
  for (const obs::TraceBuffer &B : Bufs)
    Docs.push_back(B.chromeJson());
  std::string Merged = obs::mergeChromeTraces(Docs);
  for (unsigned R = 0; R != 4; ++R)
    EXPECT_NE(Merged.find("\"name\": \"rank " + std::to_string(R) + "\""),
              std::string::npos)
        << "lane for rank " << R << " missing from merged trace";
  uint64_t MergedSends = 0;
  for (size_t Pos = 0;
       (Pos = Merged.find("\"name\": \"send\"", Pos)) != std::string::npos;
       ++Pos)
    ++MergedSends;
  EXPECT_EQ(MergedSends, TotalSends);
}

/// Fault-injected distributed run: some rank must die with a named-rank
/// TransportError, and the whole mesh must wind down within the watchdog —
/// this test hanging IS the failure mode it guards against. The injected
/// fault must also land in the trace as an instant event naming the
/// offending rank and the action.
TEST(RtExec, FaultInjectionDiagnosesNeverHangs) {
  setenv("DHPF_NET_FAULT", "corrupt=1,seed=11,after=0", 1);
  setenv("DHPF_NET_TIMEOUT_MS", "2000", 1);
  obs::TraceBuffer &GB = obs::TraceBuffer::global();
  GB.clear();
  GB.start();
  auto T0 = std::chrono::steady_clock::now();

  Subject S = std::move(subjects()[0]); // jacobi
  auto Compiled = core::compileProgram(*S.App.Prog);
  ASSERT_TRUE(Compiled);
  const spmd::SpmdProgram &SP = Compiled->Program;
  spmd::RunConfig RC;
  RC.ProcExtents[S.App.ProcArrayName] = {2, 2};

  net::LoopbackMesh Mesh(4);
  std::vector<std::string> Errs(4);
  std::vector<std::thread> Ts;
  for (unsigned R = 0; R != 4; ++R)
    Ts.emplace_back([&, R] {
      try {
        auto T = Mesh.transport(R);
        rt::TransportComm C(*T);
        spmd::Interpreter I(SP, RC, C);
        S.App.Setup(I);
        I.run();
      } catch (const net::TransportError &Ex) {
        Errs[R] = Ex.what();
      }
    });
  for (auto &T : Ts)
    T.join();
  unsetenv("DHPF_NET_FAULT");
  unsetenv("DHPF_NET_TIMEOUT_MS");
  GB.stop();

  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  EXPECT_LT(Secs, 30.0) << "mesh did not wind down under the watchdog";
  bool AnyNamed = false;
  for (const std::string &E : Errs)
    AnyNamed |= E.find("rank") != std::string::npos;
  EXPECT_TRUE(AnyNamed) << "no rank reported a named-peer diagnostic";

  if (obs::compiledIn()) {
    // The transport recorded the injection itself: an instant "fault"
    // event whose args name the offending rank and the action taken.
    bool FaultSeen = false;
    for (const obs::TraceEvent &E : GB.snapshot()) {
      if (E.Name != "fault" || E.Ph != 'i')
        continue;
      FaultSeen = true;
      EXPECT_NE(E.Args.find("\"rank\": "), std::string::npos) << E.Args;
      EXPECT_NE(E.Args.find("\"action\": \"corrupt\""), std::string::npos)
          << E.Args;
    }
    EXPECT_TRUE(FaultSeen) << "no fault instant event in the trace";
  }
  GB.clear();
}

/// Hostile comm-event frames: a peer that speaks the transport protocol
/// correctly but sends payloads no correct sender could produce. Each must
/// end as a TransportError naming both ranks and the event — never an
/// abort, an allocation failure, or an out-of-bounds access (the sanitizer
/// build runs this).
TEST(RtExec, HostileEventFramesAreDiagnosed) {
  auto U64 = [](std::vector<uint8_t> &B, uint64_t V) {
    uint8_t Tmp[8];
    std::memcpy(Tmp, &V, 8);
    B.insert(B.end(), Tmp, Tmp + 8);
  };
  // kind 0: count, the flat indices, then one value per index.
  auto Packed = [&](uint64_t Count, const std::vector<int64_t> &Flats) {
    std::vector<uint8_t> B = {0};
    U64(B, Count);
    for (int64_t F : Flats)
      U64(B, static_cast<uint64_t>(F));
    for (size_t I = 0; I != Flats.size(); ++I)
      U64(B, 0x3ff0000000000000ull); // 1.0
    return B;
  };
  // kind 1: count, the base, then NVals values.
  auto Contig = [&](uint64_t Count, int64_t Base, size_t NVals) {
    std::vector<uint8_t> B = {1};
    U64(B, Count);
    U64(B, static_cast<uint64_t>(Base));
    for (size_t I = 0; I != NVals; ++I)
      U64(B, 0x3ff0000000000000ull);
    return B;
  };
  std::vector<uint8_t> UnknownKind = Contig(1, 0, 1);
  UnknownKind[0] = 2;
  std::vector<uint8_t> Wrapping = {0};
  U64(Wrapping, 1ull << 60); // 9 + 2^60 * 16 wraps to 9 in 64 bits
  std::vector<uint8_t> WrappingContig = {1};
  U64(WrappingContig, 1ull << 61); // 17 + 2^61 * 8 wraps to 17
  U64(WrappingContig, 0);
  const struct {
    const char *Name;
    std::vector<uint8_t> Frame;
  } Cases[] = {
      {"short frame", {0, 1, 0}},
      {"unknown kind byte", UnknownKind},
      {"packed length disagrees with count", Packed(2, {3})},
      {"contiguous length disagrees with count", Contig(3, 0, 2)},
      {"packed count wraps the length check", Wrapping},
      {"contiguous count wraps the length check", WrappingContig},
      {"packed flats unsorted", Packed(2, {5, 3})},
      {"packed flats duplicated", Packed(2, {4, 4})},
      {"packed flat past the array", Packed(2, {3, 16})},
      {"packed flat negative", Packed(2, {-1, 2})},
      {"contiguous run past the array", Contig(2, 15, 2)},
      {"contiguous base negative", Contig(1, -1, 1)},
  };
  spmd::ArrayStore A({1}, {16}, 8); // the receiver's copy: 16 elements
  spmd::EventPlan EP;
  EP.Id = 7;
  auto Deliver = [&](const std::vector<uint8_t> &Frame, spmd::Payload &Out) {
    net::LoopbackMesh Mesh(2);
    auto T0 = Mesh.transport(0), T1 = Mesh.transport(1);
    net::ByteSpan S{Frame.data(), Frame.size()};
    T1->post(0, static_cast<uint64_t>(EP.Id), &S, 1);
    rt::TransportComm C(*T0);
    return C.receive(0, 1, EP, A, Out);
  };

  // The harness itself: a well-formed frame decodes.
  spmd::Payload Good;
  ASSERT_TRUE(Deliver(Packed(2, {3, 9}), Good));
  ASSERT_EQ(Good.N, 2u);
  EXPECT_EQ((*Good.Flats)[1], 9);
  EXPECT_EQ(Good.Vals[1], 1.0);

  for (const auto &C : Cases) {
    spmd::Payload Out;
    try {
      Deliver(C.Frame, Out);
      ADD_FAILURE() << C.Name << ": accepted";
    } catch (const net::TransportError &E) {
      std::string W = E.what();
      EXPECT_NE(W.find("rank 0"), std::string::npos) << C.Name << ": " << W;
      EXPECT_NE(W.find("rank 1"), std::string::npos) << C.Name << ": " << W;
      EXPECT_NE(W.find("event 7"), std::string::npos) << C.Name << ": " << W;
    }
  }
}

} // namespace
