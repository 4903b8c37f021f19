//===- tests/rank_storage_test.cpp - Rank-local array storage ------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Each rank stores, per array, only the box of its owned block plus the
// overlap its loop nests reach (spmd/Layout.h). These tests pin the box
// sizes on the Figure 7 layouts — a BLOCK dimension shrinks by its
// processor extent, a CYCLIC one keeps its full extent — check that a
// replicated (unaligned) array is one copy per processor in every engine,
// so replicated computation gives the serial answer at any P, that an
// array replicated along a distributed dimension is refused by name, that
// admission charges what each engine allocates, and that assembled
// arrays follow the run.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"
#include "hpf/HpfParser.h"
#include "net/Loopback.h"
#include "rt/RankResult.h"
#include "rt/Session.h"
#include "rt/TransportComm.h"
#include "spmd/KernelCache.h"
#include "spmd/Layout.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <thread>
#include <unistd.h>

using namespace dhpf;
using namespace dhpf::spmd;

namespace {

StorageLayout storageOf(const apps::AppInstance &App,
                        const std::vector<int64_t> &Shape,
                        std::unique_ptr<core::CompileOutput> &Keep) {
  Keep = core::compileProgram(*App.Prog);
  EXPECT_TRUE(Keep);
  RunConfig RC;
  RC.ProcExtents[App.ProcArrayName] = Shape;
  return resolveStorage(Keep->Program, resolveLayout(Keep->Program, RC));
}

/// Every rank's box of every array holds at most \p Max elements and
/// contains the elements the rank owns.
void expectBoxes(const StorageLayout &S, const std::vector<int64_t> &Shape,
                 int64_t Max) {
  ProgramLayout L;
  L.ProcShape = Shape;
  L.NumProcs = static_cast<unsigned>(S.BoxLo.size());
  for (size_t A = 0; A != S.Arrays.size(); ++A) {
    const ArrayLayout &AL = S.Arrays[A];
    EXPECT_LE(S.boxElements(A), Max) << AL.Desc;
    for (unsigned P = 0; P != L.NumProcs; ++P) {
      std::vector<std::vector<int64_t>> Own = AL.owned(rankCoords(L, P));
      for (size_t D = 0; D != Own.size(); ++D) {
        ASSERT_FALSE(Own[D].empty()) << AL.Desc << " rank " << P;
        EXPECT_GE(Own[D].front(), S.BoxLo[P][A][D]) << AL.Desc;
        EXPECT_LT(Own[D].back(), S.BoxLo[P][A][D] + S.BoxExtent[A][D])
            << AL.Desc;
      }
    }
  }
}

TEST(RankStorage, JacobiBoxesAreBlockPlusHalo) {
  std::unique_ptr<core::CompileOutput> C;
  StorageLayout S = storageOf(apps::makeJacobi(64, 2), {2, 2}, C);
  expectBoxes(S, {2, 2}, 34 * 34);
  // The launch size: a rank holds at most 2 * 258^2 doubles of U and V.
  S = storageOf(apps::makeJacobi(512, 2), {2, 2}, C);
  expectBoxes(S, {2, 2}, 258 * 258);
  int64_t Total = 0;
  for (size_t A = 0; A != S.Arrays.size(); ++A)
    Total += S.boxElements(A);
  EXPECT_LE(Total, 2 * 258 * 258);
}

TEST(RankStorage, ErlebacherBoxesArePlanesPlusHalo) {
  std::unique_ptr<core::CompileOutput> C;
  StorageLayout S = storageOf(apps::makeErlebacher(16, 2), {4}, C);
  expectBoxes(S, {4}, 16 * 16 * 6);
}

TEST(RankStorage, CyclicDimensionsKeepTheirFullExtent) {
  std::unique_ptr<core::CompileOutput> C;
  StorageLayout S = storageOf(apps::makeGauss(12), {2, 2}, C);
  ASSERT_EQ(S.Arrays.size(), 1u);
  EXPECT_EQ(S.BoxExtent[0], S.Arrays[0].Extent);
  for (const auto &Rank : S.BoxLo)
    EXPECT_EQ(Rank[0], S.Arrays[0].Lo);
}

/// An array replicated along a distributed template dimension has no
/// single owner per element, which the ownership formulas assume: every
/// run refuses it with a FootprintError naming the array.
TEST(RankStorage, PartialReplicationIsRefusedByName) {
  std::unique_ptr<hpf::Program> Prog = hpf::parseHpfProgram(R"(program prepl
processors P(*NP)
template T(1:8, 1:8)
array A(1:8, 1:8) align (a0,a1) with T(a0,a1)
array C(1:8) align (a0) with T(*, a0)
distribute T(block, *) onto P

procedure main
  nest use vectorize 1
    do i = 2, 8
    do j = 1, 8
    A(i,j) = A(i-1,j)*C(j)
  endnest
endprocedure
)");
  ASSERT_TRUE(Prog);
  std::unique_ptr<core::CompileOutput> C = core::compileProgram(*Prog);
  ASSERT_TRUE(C);
  RunConfig RC;
  RC.ProcExtents["P"] = {2};
  try {
    Interpreter I(C->Program, RC);
    ADD_FAILURE() << "partial replication was accepted";
  } catch (const FootprintError &E) {
    EXPECT_NE(std::string(E.what()).find(
                  "array 'C'(1:8) is replicated along distributed template "
                  "dimension 1"),
              std::string::npos)
        << E.what();
  }
}

/// An in-process plan-executor run holds every rank's boxes (a CYCLIC
/// dimension keeps its full extent in each), a launched rank its own, the
/// tree oracle one global array: admission charges each what it
/// allocates. The array is sized against this machine's memory, and
/// nothing is allocated.
TEST(RankStorage, AdmissionChargesWhatEachEngineAllocates) {
  std::unique_ptr<hpf::Program> Prog = hpf::parseHpfProgram(R"(program cyc
param N
processors PA(*P1, *P2)
template T(1:N, 1:N)
array A(1:N, 1:N) align (a0,a1) with T(a0,a1)
distribute T(cyclic, cyclic) onto PA

procedure main
  nest update vectorize 1
    do i = 2, N
    do j = 1, N
    A(i,j) = A(i-1,j)
  endnest
endprocedure
)");
  ASSERT_TRUE(Prog);
  std::unique_ptr<core::CompileOutput> C = core::compileProgram(*Prog);
  ASSERT_TRUE(C);
  long Pages = ::sysconf(_SC_PHYS_PAGES), Page = ::sysconf(_SC_PAGESIZE);
  if (Pages <= 0 || Page <= 0)
    GTEST_SKIP() << "physical memory size unknown";
  // A global array of a quarter of physical memory: 64 full boxes of it
  // are about 18 times physical memory.
  double Phys = static_cast<double>(Pages) * static_cast<double>(Page);
  RunConfig RC;
  RC.Params["N"] = static_cast<int64_t>(std::sqrt(Phys / 32));
  RC.ProcExtents["PA"] = {8, 8};
  StorageLayout S =
      resolveStorage(C->Program, resolveLayout(C->Program, RC));
  ASSERT_EQ(S.boxElements(0), S.Arrays[0].elements());
  EXPECT_THROW(admitFootprint(S, Footprint::AllRanks), FootprintError);
  EXPECT_NO_THROW(admitFootprint(S, Footprint::OneRank));
  EXPECT_NO_THROW(admitFootprint(S, Footprint::Global));
}

/// array() under the plan executor assembles the owned blocks on request:
/// a reference taken before run() sees the run's values after it, and
/// concurrent requests agree with the tree oracle.
TEST(RankStorage, AssembledArraysFollowTheRun) {
  apps::AppInstance App = apps::makeJacobi(16, 3);
  std::unique_ptr<core::CompileOutput> C = core::compileProgram(*App.Prog);
  ASSERT_TRUE(C);
  auto Run = [&](EngineKind E, std::optional<Interpreter> &I) {
    RunConfig RC;
    RC.ProcExtents[App.ProcArrayName] = {2, 2};
    RC.Engine = E;
    RC.ExecThreads = 1;
    I.emplace(C->Program, RC);
    I->seedArrays();
  };
  std::optional<Interpreter> Tree, Plan;
  Run(EngineKind::Tree, Tree);
  Run(EngineKind::Bytecode, Plan);
  const ArrayStore &Early = Plan->array("U");
  std::vector<double> Seeded = Early.values();
  ASSERT_TRUE(Tree->run().Valid);
  ASSERT_TRUE(Plan->run().Valid);
  const std::vector<double> &Want = Tree->array("U").values();
  ASSERT_EQ(Early.values().size(), Want.size());
  EXPECT_NE(Seeded, Want);
  EXPECT_EQ(0, std::memcmp(Early.values().data(), Want.data(),
                           Want.size() * sizeof(double)));
  std::vector<const ArrayStore *> Got(4);
  std::vector<std::thread> Ts;
  for (size_t K = 0; K != Got.size(); ++K)
    Ts.emplace_back([&, K] { Got[K] = &Plan->array(K % 2 ? "V" : "U"); });
  for (std::thread &T : Ts)
    T.join();
  for (size_t K = 0; K != Got.size(); ++K) {
    const std::vector<double> &W = Tree->array(K % 2 ? "V" : "U").values();
    ASSERT_EQ(Got[K]->values().size(), W.size());
    EXPECT_EQ(0, std::memcmp(Got[K]->values().data(), W.data(),
                             W.size() * sizeof(double)));
  }
}

/// A BLOCK array A and an unaligned array C: every processor applies the
/// replicated statement to its own copy of C once per step.
const char *ReplW = R"(program replw
processors P(*NP)
template T(1:20)
array A(1:20) align (a0) with T(a0) init (a0) sin(0.4*a0)
array C(1:6) init (a0) 0.1*a0
distribute T(block) onto P

procedure main
  timeloop t = 1, 2
    nest coef
      do j = 1, 6
      C(j) = 0.5*C(j) + 1
    endnest
    nest scale
      do i = 1, 20
      A(i) = A(i) + C(3)
    endnest
  endloop
endprocedure
)";

struct Arrays {
  std::map<std::string, std::vector<double>> V;
};

Arrays inProcess(const SpmdProgram &SP, int64_t NP, EngineKind E) {
  rt::SessionOptions SO;
  SO.NumProcs = NP;
  std::string Err;
  std::optional<rt::Session> S = rt::resolveSession(SP, SO, Err);
  EXPECT_TRUE(S) << Err;
  RunConfig RC = S->Config;
  RC.Engine = E;
  Interpreter I(SP, RC);
  S->setup(SP, I);
  RunResult R = I.run();
  EXPECT_TRUE(R.Valid);
  Arrays Out;
  for (const char *Name : {"A", "C"})
    Out.V[Name] = I.array(Name).values();
  return Out;
}

/// Rank processes as threads over a loopback mesh, merged as the
/// launcher merges them.
Arrays distributed(const SpmdProgram &SP, int64_t NP) {
  rt::SessionOptions SO;
  SO.NumProcs = NP;
  std::string Err;
  std::optional<rt::Session> S = rt::resolveSession(SP, SO, Err);
  EXPECT_TRUE(S) << Err;
  net::LoopbackMesh Mesh(static_cast<unsigned>(NP));
  std::vector<rt::RankDump> Dumps(NP);
  std::vector<std::thread> Ts;
  for (unsigned R = 0; R != NP; ++R)
    Ts.emplace_back([&, R] {
      std::unique_ptr<net::Transport> T = Mesh.transport(R);
      rt::TransportComm C(*T, nullptr);
      Interpreter I(SP, S->Config, C);
      S->setup(SP, I);
      RunResult RR = I.run();
      std::string E;
      EXPECT_TRUE(rt::parseRankDump(rt::rankFileBytes(I, *T, RR), Dumps[R], E))
          << E;
    });
  for (std::thread &T : Ts)
    T.join();
  rt::MergedRun M;
  EXPECT_TRUE(rt::mergeRankDumps(SP, S->Config, Dumps, M, Err)) << Err;
  EXPECT_TRUE(M.R.Valid);
  Arrays Out;
  for (const char *Name : {"A", "C"})
    Out.V[Name] = M.Arrays.at(Name).values();
  return Out;
}

void expectSameBits(const Arrays &X, const Arrays &Y, const char *What) {
  for (const auto &[Name, V] : X.V) {
    const std::vector<double> &W = Y.V.at(Name);
    ASSERT_EQ(V.size(), W.size()) << What << " " << Name;
    EXPECT_EQ(0, std::memcmp(V.data(), W.data(), V.size() * sizeof(double)))
        << What << ": array " << Name << " differs from the serial run";
  }
}

TEST(ReplicatedArrays, OneCopyPerProcessorInEveryEngine) {
  std::unique_ptr<hpf::Program> Prog = hpf::parseHpfProgram(ReplW);
  ASSERT_TRUE(Prog);
  std::unique_ptr<core::CompileOutput> Compiled = core::compileProgram(*Prog);
  ASSERT_TRUE(Compiled);
  const SpmdProgram &SP = Compiled->Program;

  Arrays Serial = inProcess(SP, 1, EngineKind::Tree);
  expectSameBits(inProcess(SP, 4, EngineKind::Tree), Serial, "tree P=4");
  expectSameBits(inProcess(SP, 4, EngineKind::Bytecode), Serial,
                 "bytecode P=4");
  if (native::KernelCache::global().compilerAvailable())
    expectSameBits(inProcess(SP, 4, EngineKind::Native), Serial,
                   "native P=4");
  expectSameBits(distributed(SP, 4), Serial, "4 ranks over loopback");
}

} // namespace
