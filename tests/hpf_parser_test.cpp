//===- tests/hpf_parser_test.cpp - Textual mini-HPF front end ------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// The front end must produce programs equivalent to builder-API ones: the
// jacobi text below is compiled and executed, and its results must match
// the serial reference, exercising parser -> IR -> analyses -> SPMD -> sim.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "hpf/HpfParser.h"
#include "spmd/Interp.h"

#include <gtest/gtest.h>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::hpf;
using namespace dhpf::spmd;

namespace {

const char *JacobiText = R"hpf(
! A 4-point stencil with a convergence reduction (the Figure 7(c) code).
program jacobi_text
processors PR(*PV, *PH)
template T(1:16, 1:16)
array U(1:16, 1:16) align (i,j) with T(i,j)
array V(1:16, 1:16) align (i,j) with T(i,j)
distribute T(block, block) onto PR

procedure main
  timeloop t = 1, 2
    nest sweep
      do i = 2, 15
      do j = 2, 15
      V(i,j) = U(i-1,j) U(i+1,j) U(i,j-1) U(i,j+1) cost 6 sem 0
    endnest
    nest copyback
      do i = 2, 15
      do j = 2, 15
      U(i,j) = V(i,j) sem 1
    endnest
    reduce max resid
  endloop
endprocedure
)hpf";

TEST(HpfParser, Declarations) {
  auto P = parseHpfProgram(JacobiText);
  EXPECT_EQ(P->name(), "jacobi_text");
  const ProcArray &PA = P->procArray("PR");
  ASSERT_EQ(PA.rank(), 2u);
  EXPECT_TRUE(PA.Dims[0].isSymbolic());
  EXPECT_EQ(PA.Dims[0].Symbol, "PV");
  EXPECT_EQ(P->array("U").rank(), 2u);
  ASSERT_NE(P->alignOf("U"), nullptr);
  EXPECT_EQ(P->alignOf("U")->TemplateName, "T");
  const Distribute &D = P->distributeOf("T");
  EXPECT_EQ(D.ProcName, "PR");
  ASSERT_EQ(D.Specs.size(), 2u);
  EXPECT_EQ(D.Specs[0].K, DistSpec::Kind::Block);
  ASSERT_EQ(P->procedures().size(), 1u);
  const Phase &Time = P->procedures()[0].Phases.at(0);
  EXPECT_EQ(Time.K, Phase::Kind::SeqLoop);
  EXPECT_EQ(Time.SeqCount, 2);
  ASSERT_EQ(Time.Body.size(), 3u);
  EXPECT_EQ(Time.Body[0].K, Phase::Kind::Nest);
  EXPECT_EQ(Time.Body[0].Nest.Stmts.size(), 1u);
  EXPECT_EQ(Time.Body[0].Nest.Stmts[0].Reads.size(), 4u);
  EXPECT_EQ(Time.Body[0].Nest.Stmts[0].Cost, 6.0);
  EXPECT_EQ(Time.Body[2].K, Phase::Kind::Reduce);
  EXPECT_EQ(Time.Body[2].Reduce.O, Reduction::Op::Max);
}

TEST(HpfParser, AffineSubscripts) {
  auto P = parseHpfProgram(
      "program t\n"
      "processors P(4)\n"
      "template T(1:20)\n"
      "array A(0:19) align (i) with T(2*i+1)\n"
      "array B(1:20)\n"
      "distribute T(cyclic(3)) onto P\n"
      "procedure main\n"
      "  nest n vectorize 1\n"
      "    do i = 2, 19\n"
      "    A(i) = A(i-1) B(2*i-3) onhome A(i-1) sem 0\n"
      "  endnest\n"
      "endprocedure\n");
  const Align *Al = P->alignOf("A");
  ASSERT_NE(Al, nullptr);
  ASSERT_EQ(Al->Terms.size(), 1u);
  EXPECT_EQ(Al->Terms[0].Stride, 2);
  EXPECT_EQ(Al->Terms[0].Offset, 1);
  EXPECT_EQ(P->distributeOf("T").Specs[0].K, DistSpec::Kind::CyclicK);
  EXPECT_EQ(P->distributeOf("T").Specs[0].BlockK, 3);
  const ComputeNest &N = P->procedures()[0].Phases[0].Nest;
  EXPECT_EQ(N.VectorizeLevel, 1u);
  ASSERT_EQ(N.Stmts[0].Reads.size(), 2u);
  // B(2*i-3): coefficient 2 on i, constant -3.
  const AffineExpr &Sub = N.Stmts[0].Reads[1].Subs[0];
  ASSERT_EQ(Sub.Terms.size(), 1u);
  EXPECT_EQ(Sub.Terms[0].second, 2);
  EXPECT_EQ(Sub.K, -3);
  ASSERT_EQ(N.Stmts[0].OnHome.size(), 1u);
}

TEST(HpfParser, ParsedProgramCompilesAndRuns) {
  auto P = parseHpfProgram(JacobiText);
  auto Compiled = compileProgram(*P);
  RunConfig RC;
  RC.ProcExtents = {{"PR", {2, 2}}};
  Interpreter I(Compiled->Program, RC);
  I.setSemantics(0, [](std::span<const double> R,
                       std::span<const int64_t>, AccumMap &Acc) {
    double V = 0.25 * (R[0] + R[1] + R[2] + R[3]);
    Acc["resid"] = std::max(Acc["resid"], V);
    return V;
  });
  I.setSemantics(1, [](std::span<const double> R,
                       std::span<const int64_t>, AccumMap &) {
    return R[0];
  });
  auto Init = [](const std::vector<int64_t> &Idx) {
    return double(Idx[0] * 16 + Idx[1]);
  };
  I.initArray("U", Init);
  RunResult RR = I.run();
  for (const std::string &V : RR.Violations)
    ADD_FAILURE() << V;
  EXPECT_TRUE(RR.Valid);

  // Serial reference for 2 steps of the sweep/copyback pair.
  std::vector<std::vector<double>> U(17, std::vector<double>(17)), V = U;
  for (int64_t Ii = 1; Ii <= 16; ++Ii)
    for (int64_t Jj = 1; Jj <= 16; ++Jj)
      U[Ii][Jj] = Init({Ii, Jj});
  for (int T = 0; T != 2; ++T) {
    for (int64_t Ii = 2; Ii <= 15; ++Ii)
      for (int64_t Jj = 2; Jj <= 15; ++Jj)
        V[Ii][Jj] = 0.25 * (U[Ii - 1][Jj] + U[Ii + 1][Jj] + U[Ii][Jj - 1] +
                            U[Ii][Jj + 1]);
    for (int64_t Ii = 2; Ii <= 15; ++Ii)
      for (int64_t Jj = 2; Jj <= 15; ++Jj)
        U[Ii][Jj] = V[Ii][Jj];
  }
  const ArrayStore &AU = I.array("U");
  for (int64_t Ii = 1; Ii <= 16; ++Ii)
    for (int64_t Jj = 1; Jj <= 16; ++Jj)
      EXPECT_NEAR(AU.at(AU.flatten({Ii, Jj})), U[Ii][Jj], 1e-12)
          << Ii << "," << Jj;
}

TEST(HpfParser, NestedTimeloops) {
  auto P = parseHpfProgram("program t\n"
                           "processors P(2)\n"
                           "template T(1:8)\n"
                           "array A(1:8) align (i) with T(i)\n"
                           "array B(1:8) align (i) with T(i)\n"
                           "distribute T(block) onto P\n"
                           "procedure main\n"
                           "  timeloop t = 1, 3\n"
                           "    timeloop u = 1, 2\n"
                           "      nest n\n"
                           "        do i = 1, 8\n"
                           "        A(i) = B(i) sem 0\n"
                           "      endnest\n"
                           "    endloop\n"
                           "    reduce sum s\n"
                           "  endloop\n"
                           "endprocedure\n");
  const Phase &Outer = P->procedures()[0].Phases[0];
  ASSERT_EQ(Outer.Body.size(), 2u);
  EXPECT_EQ(Outer.Body[0].K, Phase::Kind::SeqLoop);
  EXPECT_EQ(Outer.Body[0].SeqCount, 2);
  EXPECT_EQ(Outer.Body[1].K, Phase::Kind::Reduce);
}

} // namespace
