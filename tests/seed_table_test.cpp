//===- tests/seed_table_test.cpp - Seeding by tables against the oracle --===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// The plan executor seeds an array from its init value by terms: each
// maximal subtree that reads at most one index is evaluated once per index
// value into a table, and the rest of the tree runs over each owned run
// (DESIGN.md §7). The tree oracle evaluates every element on its own. The
// two must give the same bits for init values that use every operator
// (sin, cos, abs, min, max, /, unary -) on terms over 0, 1, 2 and 3
// indices, producing infinities, NaN and -0 along the way (min and max
// meet signed-zero ties and NaN on either side), on BLOCK,
// CYCLIC, CYCLIC(3), (BLOCK, *) and replicated arrays of one, two and
// three dimensions, at P = 1, 3, 4 and 8 (where some ranks own nothing),
// on the bytecode and native engines with 1 and 4 threads, and on the
// ranks of a launch, one Interpreter per rank.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "hpf/HpfParser.h"
#include "net/Loopback.h"
#include "rt/RankResult.h"
#include "rt/TransportComm.h"
#include "spmd/Bytecode.h"
#include "spmd/KernelCache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace dhpf;
using namespace dhpf::spmd;

namespace {

const char *SeedsHpf = R"(program seeds
processors P(*NP)
template T1(1:29)
template TC(1:23)
template TK(1:31)
template T2(1:13, 1:7)
template T3(1:5, 1:6, 1:9)
template T3K(1:4, 1:11, 1:5)
array VB(1:29) align (a0) with T1(a0) init (a0) -sin(0.3*a0)/(1 + abs(a0 - 14)) + max(0.5, min(a0, 20))*cos(2)
array VC(1:23) align (a0) with TC(a0) init (a0) min(cos(0.2*a0), -0.25) - abs(sin(a0))/3
array VK(1:31) align (a0) with TK(a0) init (a0) max(a0/7, -a0) + 1/(a0 - 16) + -(a0*0)
array MB(1:13, 1:7) align (a0,a1) with T2(a0,a1) init (a0,a1) sin(0.1*a0)*cos(0.2*a1) + abs(a0 - a1)/(a1 - 3) - min(a0, a1) + max(-a1, 2.5)*(1 + 2)
array MC(1:13, 1:7) align (a0,a1) with T2(a0,a1) init (a0,a1) cos(0.3*a1)
array MD(1:13, 1:7) align (a0,a1) with T2(a0,a1) init (a0,a1) a0
array ME(1:13, 1:7) align (a0,a1) with T2(a0,a1) init (a0,a1) sin(a0)*2
array MZ(1:13, 1:7) align (a0,a1) with T2(a0,a1) init (a0,a1) -(a0*a1*0) + -(0*a1)
array N1(1:13, 1:7) align (a0,a1) with T2(a0,a1) init (a0,a1) 1/min(-(0*a0), 0*a1)
array N2(1:13, 1:7) align (a0,a1) with T2(a0,a1) init (a0,a1) 1/min(0*a1, -(0*a0))
array N3(1:13, 1:7) align (a0,a1) with T2(a0,a1) init (a0,a1) max(0/(a0 - a0), a1)
array N4(1:13, 1:7) align (a0,a1) with T2(a0,a1) init (a0,a1) max(a1, 0/(a0 - a0))
array N5(1:13, 1:7) align (a0,a1) with T2(a0,a1) init (a0,a1) min(0/(a0 - a0), a0*a1)
array N6(1:5, 1:6, 1:9) align (a0,a1,a2) with T3(a0,a1,a2) init (a0,a1,a2) 1/min(-(0*a1), 0*a2) + a0
array CB(1:5, 1:6, 1:9) align (a0,a1,a2) with T3(a0,a1,a2) init (a0,a1,a2) sin(0.3*a0 + 0.5*a1 + 0.7*a2) + cos(a0)*sin(a2) - a1/(a2 + 0.5) + min(max(a0, a1), a2) + -(1/(a0 - 3))
array CK(1:4, 1:11, 1:5) align (a0,a1,a2) with T3K(a0,a1,a2) init (a0,a1,a2) abs(cos(0.4*a1) - 0.5*a0)*(a2 - a0) + max(sin(a0*a2), -0.5)
array RV(1:7) init (a0) 1/(a0 - 4) - cos(a0)
array RM(1:4, 1:5) init (a0,a1) min(a0*a1, 6) + sin(a1)/a0 - (-a0)
array R3(1:3, 1:4, 1:2) init (a0,a1,a2) a0 + a1*a2 + cos(0.5)
distribute T1(block) onto P
distribute TC(cyclic) onto P
distribute TK(cyclic(3)) onto P
distribute T2(block, *) onto P
distribute T3(*, *, block) onto P
distribute T3K(*, cyclic(3), *) onto P

procedure main
  nest touch
    do i = 1, 29
    VB(i) = VB(i) + 1
  endnest
endprocedure
)";

const std::vector<std::string> &arrayNames() {
  static const std::vector<std::string> N = {
      "VB", "VC", "VK", "MB", "MC", "MD", "ME", "MZ", "N1", "N2",
      "N3", "N4", "N5", "N6", "CB", "CK", "RV", "RM", "R3"};
  return N;
}

const SpmdProgram &program() {
  static std::unique_ptr<hpf::Program> Prog = hpf::parseHpfProgram(SeedsHpf);
  static std::unique_ptr<core::CompileOutput> C =
      Prog ? core::compileProgram(*Prog) : nullptr;
  EXPECT_TRUE(C) << "the seeding program does not compile";
  return C->Program;
}

RunConfig config(unsigned NP, EngineKind E, unsigned Threads) {
  RunConfig RC;
  RC.ProcExtents = {{"P", {NP}}};
  RC.Engine = E;
  RC.ExecThreads = Threads;
  return RC;
}

/// Every array as the tree oracle seeds it, element by element.
std::map<std::string, std::vector<double>> oracle(unsigned NP) {
  Interpreter I(program(), config(NP, EngineKind::Tree, 1));
  I.seedArrays();
  std::map<std::string, std::vector<double>> Out;
  for (const std::string &N : arrayNames())
    Out[N] = I.array(N).values();
  return Out;
}

void expectSameBits(const std::vector<double> &Got,
                    const std::vector<double> &Want,
                    const std::string &What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (size_t K = 0; K != Got.size(); ++K)
    ASSERT_EQ(0, std::memcmp(&Got[K], &Want[K], sizeof(double)))
        << What << " element " << K << ": " << Got[K] << " vs oracle "
        << Want[K];
}

TEST(SeedTable, OracleSeesTheSpecialValues) {
  std::map<std::string, std::vector<double>> Ref = oracle(1);
  auto Has = [&](const char *A, bool (*Pred)(double)) {
    for (double V : Ref.at(A))
      if (Pred(V))
        return true;
    return false;
  };
  EXPECT_TRUE(Has("VK", [](double V) { return std::isinf(V); }));
  EXPECT_TRUE(Has("MB", [](double V) { return std::isnan(V); }));
  EXPECT_TRUE(Has("MB", [](double V) { return std::isinf(V); }));
  EXPECT_TRUE(Has("CB", [](double V) { return std::isinf(V); }));
  EXPECT_TRUE(Has("MZ", [](double V) { return V == 0 && std::signbit(V); }));
  EXPECT_TRUE(Has("RV", [](double V) { return std::isinf(V); }));
  // min and max keep std::'s operand order on a signed-zero tie and a
  // NaN, for a vector and a run-constant operand on either side and for
  // two run-constant operands.
  auto All = [&](const char *A, bool (*Pred)(double)) {
    for (double V : Ref.at(A))
      if (!Pred(V))
        return false;
    return true;
  };
  EXPECT_TRUE(All("N1", [](double V) { return V == -INFINITY; }));
  EXPECT_TRUE(All("N2", [](double V) { return V == INFINITY; }));
  EXPECT_TRUE(All("N3", [](double V) { return std::isnan(V); }));
  EXPECT_TRUE(All("N4", [](double V) { return !std::isnan(V); }));
  EXPECT_TRUE(All("N5", [](double V) { return std::isnan(V); }));
  EXPECT_TRUE(All("N6", [](double V) { return V == -INFINITY; }));
}

TEST(SeedTable, InProcessMatchesTheOracleBitForBit) {
  std::vector<EngineKind> Engines = {EngineKind::Bytecode};
  if (native::KernelCache::global().compilerAvailable())
    Engines.push_back(EngineKind::Native);
  for (unsigned NP : {1u, 3u, 4u, 8u}) {
    std::map<std::string, std::vector<double>> Ref = oracle(NP);
    for (EngineKind E : Engines)
      for (unsigned Threads : {1u, 4u}) {
        Interpreter I(program(), config(NP, E, Threads));
        I.seedArrays();
        for (const std::string &N : arrayNames())
          expectSameBits(I.array(N).values(), Ref.at(N),
                         N + " at P=" + std::to_string(NP) +
                             (E == EngineKind::Native ? " native"
                                                      : " bytecode") +
                             ", " + std::to_string(Threads) + " threads");
      }
  }
}

/// Each rank of a launch seeds in its own Interpreter; the values it
/// reports, merged, are the oracle's.
TEST(SeedTable, LaunchedRanksMatchTheOracleBitForBit) {
  const SpmdProgram &SP = program();
  for (unsigned NP : {3u, 8u}) {
    RunConfig RC = config(NP, EngineKind::Bytecode, 1);
    net::LoopbackMesh Mesh(NP);
    std::vector<rt::RankDump> Dumps(NP);
    std::vector<std::thread> Ts;
    for (unsigned R = 0; R != NP; ++R)
      Ts.emplace_back([&, R] {
        std::unique_ptr<net::Transport> T = Mesh.transport(R);
        rt::TransportComm C(*T, nullptr);
        Interpreter I(SP, RC, C);
        I.seedArrays();
        std::string Err;
        EXPECT_TRUE(rt::parseRankDump(rt::rankFileBytes(I, *T, RunResult()),
                                      Dumps[R], Err))
            << Err;
      });
    for (std::thread &T : Ts)
      T.join();
    rt::MergedRun M;
    std::string Err;
    ASSERT_TRUE(rt::mergeRankDumps(SP, RC, Dumps, M, Err)) << Err;
    std::map<std::string, std::vector<double>> Ref = oracle(NP);
    for (const std::string &N : arrayNames())
      expectSameBits(M.Arrays.at(N).values(), Ref.at(N),
                     N + " launched at P=" + std::to_string(NP));
  }
}

/// The split itself: jacobi's init is two terms and an add, gauss's has no
/// term that reads at most one index, and a vector's whole value is one
/// term.
TEST(SeedTable, TermsAreTheMaximalSubtreesOverOneIndex) {
  auto Split = [](const char *Init, unsigned Dims) {
    std::string Idx = "a0", Ext = "1:4", Dist = "block", Sub = "i";
    for (unsigned D = 1; D != Dims; ++D) {
      Idx += ",a" + std::to_string(D);
      Ext += ", 1:4";
      Dist += ", *";
      Sub += ",1";
    }
    std::string Src = "program s\nprocessors P(*NP)\ntemplate T(" + Ext +
                      ")\narray A(" + Ext + ") align (" + Idx +
                      ") with T(" + Idx + ") init (" + Idx + ") " + Init +
                      "\ndistribute T(" + Dist +
                      ") onto P\n\nprocedure main\n  nest n\n"
                      "    do i = 1, 4\n    A(" +
                      Sub + ") = 1\n  endnest\nendprocedure\n";
    std::unique_ptr<hpf::Program> P = hpf::parseHpfProgram(Src);
    EXPECT_TRUE(P) << Src;
    return bc::compileSeed(*P->arrays().at("A").Init);
  };
  bc::SeedProg J = Split("sin(0.05*a0) + cos(0.07*a1)", 2);
  ASSERT_EQ(J.Terms.size(), 2u);
  EXPECT_EQ(J.Terms[0].Dim, 0);
  EXPECT_EQ(J.Terms[1].Dim, 1);
  EXPECT_EQ(J.Residual.Code.size(), 3u); // read, read, add

  bc::SeedProg G =
      Split("1/(1 + abs(a0 - a1)) + 12*max(0, 1 - abs(a0 - a1))", 2);
  EXPECT_TRUE(G.Terms.empty());

  bc::SeedProg E = Split("sin(0.1*a0)*cos(0.1*a1) + 0.05*a2", 3);
  ASSERT_EQ(E.Terms.size(), 3u);
  EXPECT_EQ(E.Terms[2].Dim, 2);

  bc::SeedProg C = Split("a0*a1 + (2*3)", 2);
  ASSERT_EQ(C.Terms.size(), 1u);
  EXPECT_EQ(C.Terms[0].Dim, -1);

  bc::SeedProg V = Split("cos(0.4*a0) - 1", 1);
  ASSERT_EQ(V.Terms.size(), 1u);
  EXPECT_EQ(V.Residual.Code.size(), 1u);
}

} // namespace
