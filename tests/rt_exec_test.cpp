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
/// goes through the full result pipeline (the streamed writer -> parse ->
/// merge), so the binary result file is covered by the same assertions,
/// and hostile result files (cut short, corrupted, oversized counts,
/// foreign identification words, value counts that disagree with the
/// block the ownership formulas give a rank) must be refused. Reductions
/// gather to rank 0 and broadcast back with the in-process rank-order
/// fold. Fault-injected runs must die with a named-rank diagnostic under
/// the watchdog, never hang, and hostile comm-event frames must be
/// diagnosed.
///
//===----------------------------------------------------------------------===//

#include "apps/Registry.h"
#include "core/Compiler.h"
#include "hpf/HpfParser.h"
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
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
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

/// Runs \p SP distributed on \p Mesh with one thread per rank and returns
/// every rank's result file. Any rank error fails the test.
std::vector<std::string> rankResults(const spmd::SpmdProgram &SP,
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
        I.seedArrays();
        spmd::RunResult RR = I.run();
        Dumps[R] = rt::rankFileBytes(I, *T, RR);
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

  for (unsigned R = 0; R != NP; ++R)
    EXPECT_EQ(Errs[R], "") << "rank " << R;
  return Dumps;
}

std::vector<rt::RankDump> parseAll(const std::vector<std::string> &Files) {
  std::vector<rt::RankDump> Parsed;
  for (const std::string &F : Files) {
    rt::RankDump D;
    std::string Err;
    EXPECT_TRUE(rt::parseRankDump(F, D, Err)) << Err;
    Parsed.push_back(std::move(D));
  }
  return Parsed;
}

/// rankResults, then the launcher's parse and merge.
rt::MergedRun runDistributed(const spmd::SpmdProgram &SP,
                             const spmd::RunConfig &RC, Mesh Kind) {
  rt::MergedRun Merged;
  std::string Err;
  EXPECT_TRUE(rt::mergeRankDumps(
      SP, RC, parseAll(rankResults(SP, RC, Kind)), Merged, Err))
      << Err;
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
  I.seedArrays();
  spmd::RunResult Ref = I.run();
  ASSERT_TRUE(Ref.Valid);

  rt::MergedRun Loop = runDistributed(SP, RC, Mesh::Loopback);
  expectBitIdentical(Loop, Ref, I);

  rt::MergedRun Sock = runDistributed(SP, RC, Mesh::Socket);
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
  I.seedArrays();
  spmd::RunResult Ref = I.run();
  ASSERT_TRUE(Ref.Valid);

  for (Mesh Kind : {Mesh::Loopback, Mesh::Socket}) {
    rt::MergedRun M = runDistributed(SP, RC, Kind);
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
    rt::MergedRun M = runDistributed(SP, RC, Mesh::Loopback);
    uint64_t Calls = Pumps->value() - Before, Stmts = M.R.StmtInstances;
    EXPECT_GT(Calls, 0u);
    EXPECT_LE(Calls * 256, Stmts);
    EXPECT_GE(Calls * 256 + 4 * 255, Stmts);
  }
}

//===----------------------------------------------------------------------===//
// Hostile result files, built from the four files of a real P=4 run
//===----------------------------------------------------------------------===//

/// Canonical jacobi on its P=4 grid, run over loopback: the compiled
/// program, its configuration, and the four rank result files.
struct JacobiFiles {
  apps::AppInstance App = apps::findApp("jacobi")->MakeCanonical();
  std::unique_ptr<core::CompileOutput> Compiled =
      core::compileProgram(*App.Prog);
  spmd::RunConfig RC;
  std::vector<std::string> Files;

  JacobiFiles() {
    RC.ProcExtents[App.ProcArrayName] = apps::findApp("jacobi")->ProcShape(4);
    Files = rankResults(Compiled->Program, RC, Mesh::Loopback);
  }
};

uint64_t wordAt(const std::string &F, size_t Pos) {
  uint64_t V = 0;
  std::memcpy(&V, F.data() + Pos, 8);
  return V;
}

void setWord(std::string &F, size_t Pos, uint64_t V) {
  std::memcpy(&F[Pos], &V, 8);
}

/// Recomputes the trailing checksum (FNV-1a 64 per 8-byte word, then per
/// tail byte), as a writer that meant every byte would.
void reseal(std::string &F) {
  uint64_t H = 0xcbf29ce484222325ull;
  size_t I = 0, N = F.size() - 8;
  for (; I + 8 <= N; I += 8) {
    H ^= wordAt(F, I);
    H *= 0x100000001b3ull;
  }
  for (; I != N; ++I) {
    H ^= static_cast<unsigned char>(F[I]);
    H *= 0x100000001b3ull;
  }
  setWord(F, F.size() - 8, H);
}

/// Offsets of the count words, found by walking the layout
/// rt/RankResult.h documents: the header is 15 words, then the
/// violations, the accumulators, and the arrays.
struct CountWords {
  size_t Violations, Accums, Arrays, FirstValues;
};

CountWords countWords(const std::string &F) {
  CountWords C = {};
  size_t Pos = C.Violations = 15 * 8;
  uint64_t N = wordAt(F, Pos);
  for (Pos += 8; N != 0; --N)
    Pos += 8 + wordAt(F, Pos);
  C.Accums = Pos;
  N = wordAt(F, Pos);
  for (Pos += 8; N != 0; --N)
    Pos += 8 + wordAt(F, Pos) + 8;
  C.Arrays = Pos;
  Pos += 8;
  C.FirstValues = Pos + 8 + wordAt(F, Pos);
  return C;
}

std::string parseError(const std::string &F) {
  rt::RankDump D;
  std::string Err;
  EXPECT_FALSE(rt::parseRankDump(F, D, Err)) << "accepted";
  return Err;
}

/// Every proper prefix of every rank's file is a rank that died mid-dump.
TEST(RtDump, ParserDiagnosesTruncation) {
  JacobiFiles J;
  for (const std::string &F : J.Files) {
    rt::RankDump D;
    std::string Err;
    ASSERT_TRUE(rt::parseRankDump(F, D, Err)) << Err;
    for (size_t Len = 0; Len != F.size(); ++Len) {
      std::string Why = parseError(F.substr(0, Len));
      EXPECT_NE(Why.find("mid-dump"), std::string::npos)
          << "prefix of " << Len << " bytes: " << Why;
    }
  }
}

/// A byte flipped anywhere past the identification words fails the
/// checksum (those words are named instead; see below), including a byte
/// of either length word: the other one still matches the file's size,
/// so the file is whole.
TEST(RtDump, FlippedBytesFailTheChecksum) {
  JacobiFiles J;
  for (const std::string &F : J.Files) {
    std::vector<size_t> Offsets = {16, F.size() - 16};
    for (size_t Off = 61; Off < F.size(); Off += 61)
      Offsets.push_back(Off);
    for (size_t Off : Offsets) {
      std::string G = F;
      G[Off] = static_cast<char>(G[Off] ^ 0xff);
      std::string Why = parseError(G);
      EXPECT_NE(Why.find("checksum"), std::string::npos)
          << "flip at " << Off << ": " << Why;
    }
  }
}

/// Counts claiming 2^60 records or values in a correctly sealed file are
/// refused against the bytes that remain, before anything is allocated
/// (under ASan an attempted allocation of that size aborts the test).
TEST(RtDump, HugeCountsRejectedBeforeAllocation) {
  JacobiFiles J;
  const std::string &F = J.Files[1];
  CountWords C = countWords(F);
  ASSERT_EQ(wordAt(F, C.FirstValues), 64u) << "U's quarter of a 16x16 grid";
  for (size_t Pos : {C.Violations, C.Accums, C.Arrays, C.FirstValues}) {
    std::string G = F;
    setWord(G, Pos, uint64_t(1) << 60);
    reseal(G);
    std::string Why = parseError(G);
    EXPECT_NE(Why.find("1152921504606846976 exceeds"), std::string::npos)
        << "count at " << Pos << ": " << Why;
  }
}

/// A file from a different writer is named for what differs.
TEST(RtDump, ForeignMagicVersionOrByteOrderIsNamed) {
  JacobiFiles J;
  auto Patched = [&](size_t Pos, uint32_t V) {
    std::string G = J.Files[0];
    std::memcpy(&G[Pos], &V, 4);
    reseal(G);
    return parseError(G);
  };
  std::string Why = Patched(0, 0x66706858); // "Xhpf"
  EXPECT_NE(Why.find("magic"), std::string::npos) << Why;
  Why = Patched(8, 1);
  EXPECT_NE(Why.find("unsupported version 1"), std::string::npos) << Why;
  Why = Patched(12, 0x04030201);
  EXPECT_NE(Why.find("byte order"), std::string::npos) << Why;
  EXPECT_NE(parseError("rankdump 0 4\nvalid 1\nend\n" + std::string(64, ' '))
                .find("magic"),
            std::string::npos);
}

/// A rank that reports one value more or fewer than the block the
/// ownership formulas give it fails the merge, naming the rank and the
/// array. (The name predates the formulas: there is no owner map.)
TEST(RtDump, MergeRejectsCountsTheOwnerMapDisagreesWith) {
  JacobiFiles J;
  const spmd::SpmdProgram &SP = J.Compiled->Program;
  rt::MergedRun M;
  std::string Err;
  ASSERT_TRUE(rt::mergeRankDumps(SP, J.RC, parseAll(J.Files), M, Err)) << Err;

  std::vector<rt::RankDump> Short = parseAll(J.Files);
  Short[2].Owned["U"].pop_back();
  EXPECT_FALSE(rt::mergeRankDumps(SP, J.RC, Short, M, Err));
  EXPECT_NE(Err.find("rank 2 dumped 63 values of array 'U' but owns 64"),
            std::string::npos)
      << Err;

  std::vector<rt::RankDump> Long = parseAll(J.Files);
  Long[1].Owned["V"].push_back(0.0);
  EXPECT_FALSE(rt::mergeRankDumps(SP, J.RC, Long, M, Err));
  EXPECT_NE(Err.find("rank 1 dumped 65 values of array 'V' but owns 64"),
            std::string::npos)
      << Err;
}

/// Runs \p Src (a mini-HPF program on processors P(*NP)) on a P = \p NP
/// loopback mesh, one thread per rank, and calls \p Check(I, T, RR) on
/// each rank once it has run.
template <typename Fn>
void runRanks(const std::string &Src, unsigned NP, Fn Check) {
  std::unique_ptr<hpf::Program> Prog = hpf::parseHpfProgram(Src);
  ASSERT_TRUE(Prog);
  std::unique_ptr<core::CompileOutput> C = core::compileProgram(*Prog);
  ASSERT_TRUE(C);
  spmd::RunConfig RC;
  RC.ProcExtents = {{"P", {NP}}};
  net::LoopbackMesh Mesh(NP);
  std::vector<std::thread> Ts;
  for (unsigned R = 0; R != NP; ++R)
    Ts.emplace_back([&, R] {
      std::unique_ptr<net::Transport> T = Mesh.transport(R);
      rt::TransportComm Comm(*T);
      spmd::Interpreter I(C->Program, RC, Comm);
      I.seedArrays();
      spmd::RunResult RR = I.run();
      Check(I, *T, RR);
    });
  for (std::thread &T : Ts)
    T.join();
}

/// Array names of every length from 1 to 9 put the boundaries of the
/// streamed checksum's 8-byte words at every offset of a name, on a CYCLIC
/// template (one-value runs, gathered), a (*, BLOCK) one (70-value runs,
/// sent straight from the box) and a replicated array. Parsing what the
/// writer wrote gives back every counter and every value the rank owns,
/// and a byte flipped anywhere past the identification words fails the
/// checksum.
TEST(RtDump, WriterRoundTripsNamesOfEveryLength) {
  std::string Src = "program names\nprocessors P(*NP)\n"
                    "template TC(1:20)\ntemplate TB(1:70, 1:6)\n";
  const char *Inits[] = {"sin(a0)", "cos(0.1*a0) + a1", "1/a0",
                         "0.5*a0 - a1", "a0", "-a0*a1", "a0*a0",
                         "cos(a0) + a1", "sin(a0*3)"};
  std::vector<std::string> Names;
  for (unsigned L = 1; L <= 9; ++L) {
    std::string N(L, static_cast<char>('A' + L - 1));
    Names.push_back(N);
    bool Block = L % 2 == 0;
    std::string Dims = Block ? "(1:70, 1:6)" : "(1:20)";
    std::string Idx = Block ? "(a0,a1)" : "(a0)";
    Src += "array " + N + Dims;
    if (L != 5) // EEEEE is replicated
      Src += " align " + Idx + " with " + (Block ? "TB" : "TC") + Idx;
    Src += " init " + Idx + " " + Inits[L - 1] + "\n";
  }
  Src += "distribute TC(cyclic) onto P\ndistribute TB(*, block) onto P\n"
         "\nprocedure main\n  nest step\n    do i = 1, 20\n"
         "    A(i) = A(i) + CCC(i) cost 1 accum sum s A(i)\n  endnest\n"
         "  reduce sum s\nendprocedure\n";
  std::mutex Mu;
  std::vector<std::string> Files;
  runRanks(Src, 3, [&](const spmd::Interpreter &I, const net::Transport &T,
                       const spmd::RunResult &RR) {
    std::map<std::string, std::vector<double>> Owned;
    std::vector<double> *Cur = nullptr;
    I.reportOwned(
        T.rank(),
        [&](const std::string &Name, uint64_t) { Cur = &Owned[Name]; },
        [&](const double *V, int64_t Len) {
          Cur->insert(Cur->end(), V, V + Len);
        });
    std::string F = rt::rankFileBytes(I, T, RR);
    rt::RankDump D;
    std::string Err;
    ASSERT_TRUE(rt::parseRankDump(F, D, Err)) << Err;
    EXPECT_EQ(D.Rank, T.rank());
    EXPECT_EQ(D.NP, 3u);
    EXPECT_EQ(D.R.Messages, RR.Messages);
    EXPECT_EQ(D.R.Bytes, RR.Bytes);
    EXPECT_EQ(D.R.SpanCopies, RR.SpanCopies);
    EXPECT_EQ(D.R.PackedCopies, RR.PackedCopies);
    EXPECT_EQ(D.R.StmtInstances, RR.StmtInstances);
    EXPECT_EQ(D.R.CollMessages, RR.CollMessages);
    EXPECT_EQ(D.R.CollBytes, RR.CollBytes);
    EXPECT_EQ(D.R.Valid, RR.Valid);
    EXPECT_EQ(D.R.Violations, RR.Violations);
    EXPECT_EQ(D.OverlapNum, T.stats().BytesFlushedDuringCompute);
    EXPECT_EQ(D.OverlapDen, T.stats().WireBytesSent);
    ASSERT_EQ(D.R.FinalAccums.size(), 1u);
    EXPECT_EQ(0, std::memcmp(&D.R.FinalAccums.at("s"),
                             &RR.FinalAccums.at("s"), sizeof(double)));
    ASSERT_EQ(D.Owned.size(), Owned.size());
    for (const auto &[Name, V] : Owned) {
      const std::vector<double> &Got = D.Owned.at(Name);
      ASSERT_EQ(Got.size(), V.size()) << Name;
      EXPECT_TRUE(V.empty() ||
                  std::memcmp(Got.data(), V.data(), 8 * V.size()) == 0)
          << Name;
    }
    std::lock_guard<std::mutex> L(Mu);
    Files.push_back(std::move(F));
  });
  ASSERT_EQ(Files.size(), 3u);
  for (const std::string &F : Files) {
    // Rank 0 carries EEEEE's 20 values; every rank names all nine arrays.
    for (const std::string &N : Names)
      EXPECT_NE(F.find(N), std::string::npos) << N;
    for (size_t Off = 16; Off != F.size(); ++Off) {
      std::string G = F;
      G[Off] = static_cast<char>(G[Off] ^ 0x5a);
      std::string Why = parseError(G);
      ASSERT_NE(Why.find("checksum"), std::string::npos)
          << "flip at " << Off << " of " << F.size() << ": " << Why;
    }
  }
}

/// A rank with more long runs than one writev takes (IOV_MAX) writes the
/// same bytes as the string form; a full device or a missing directory
/// fails the write by name.
TEST(RtDump, WriterFileMatchesItsStringForm) {
  std::string Src = "program wide\nprocessors P(*NP)\n"
                    "template T(1:64, 1:1100)\ntemplate TC(1:30)\n"
                    "array W(1:64, 1:1100) align (a0,a1) with T(a0,a1) "
                    "init (a0,a1) sin(0.01*a0) + a1\n"
                    "array C(1:30) align (a0) with TC(a0) init (a0) a0\n"
                    "distribute T(*, block) onto P\n"
                    "distribute TC(cyclic) onto P\n\nprocedure main\n"
                    "  nest step\n    do i = 1, 30\n    C(i) = C(i) + 1\n"
                    "  endnest\nendprocedure\n";
  char Dir[] = "/tmp/dhpf_writer_test_XXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  runRanks(Src, 1, [&](const spmd::Interpreter &I, const net::Transport &T,
                       const spmd::RunResult &RR) {
    std::string Path = std::string(Dir) + "/rank0.result", Err;
    ASSERT_TRUE(rt::writeRankFile(I, T, RR, Path, Err)) << Err;
    std::ifstream In(Path, std::ios::binary);
    std::string Got((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(Got, rt::rankFileBytes(I, T, RR));
    EXPECT_GT(Got.size(), 64u * 1100 * 8);
    ::unlink(Path.c_str());
    EXPECT_FALSE(rt::writeRankFile(I, T, RR, "/dev/full", Err));
    EXPECT_EQ(Err, "short write to /dev/full");
    std::string Missing = std::string(Dir) + "/no/such/dir";
    EXPECT_FALSE(rt::writeRankFile(I, T, RR, Missing, Err));
    EXPECT_EQ(Err, "cannot write " + Missing);
  });
  ::rmdir(Dir);
}

/// Per-rank trace buffers wired through TransportComm: the comm emits one
/// "send" complete event at exactly the sites that bump
/// RunResult::Messages, so per-rank send-span counts equal the per-rank
/// message counters, the merged timeline's total equals the summed
/// counter, and all four rank lanes survive the merge.
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
        I.seedArrays();
        Msgs[R] = I.run().Messages;
      } catch (const std::exception &Ex) {
        Errs[R] = Ex.what();
      }
    });
  for (auto &T : Ts)
    T.join();
  for (unsigned R = 0; R != 4; ++R)
    ASSERT_EQ(Errs[R], "") << "rank " << R;

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
        I.seedArrays();
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

  // The transport recorded the injection itself: an instant "fault" event
  // whose args name the offending rank and the action taken.
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
  spmd::EventPlan EP;
  EP.Id = 7;
  EP.Elems = 16; // the event's array: 16 elements
  auto Deliver = [&](const std::vector<uint8_t> &Frame, spmd::Payload &Out) {
    net::LoopbackMesh Mesh(2);
    auto T0 = Mesh.transport(0), T1 = Mesh.transport(1);
    net::ByteSpan S{Frame.data(), Frame.size()};
    T1->post(0, static_cast<uint64_t>(EP.Id), &S, 1);
    rt::TransportComm C(*T0);
    return C.receive(0, 1, EP, Out);
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
