//===- tests/e2e_compile_run_test.cpp - Compile-and-execute tests --------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// End-to-end: mini-HPF programs are compiled by the set-based compiler and
// executed on the simulated message-passing machine. The interpreter
// verifies that processors only read owned or received data and that every
// message matches the receiver's expectation; the tests additionally check
// the numerical results against serial references. This exercises the whole
// pipeline: CPMap, Figure 3 communication sets, loop splitting, code
// generation, the VP model for symbolic processor counts, and the
// simulator.
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

/// 1-D two-array stencil: A(i) = B(i-1) + B(i+1), i in [2, 15].
Program stencilProgram(bool SymbolicProcs) {
  Program P("stencil1d");
  if (SymbolicProcs)
    P.addProcs("P", {Program::procDimSym("NP")});
  else
    P.addProcs("P", {Program::procDim(4)});
  P.addTemplate("T", {range(1, 16)});
  P.addArray("A", {range(1, 16)});
  P.addArray("B", {range(1, 16)});
  P.addAlign({"A", "T", {alignDim(0)}});
  P.addAlign({"B", "T", {alignDim(0)}});
  P.addDistribute({"T", "P", {distBlock()}});
  Procedure &Proc = P.addProcedure("main");
  ComputeNest N;
  N.Name = "stencil";
  N.Loops = {loop("i", 2, 15)};
  N.Stmts = {parseStatement("A(i) = B(i-1) + B(i+1)")};
  P.addNest(Proc, N);
  return P;
}

void runStencil(const Program &P, CompilerOptions Opts,
                const std::map<std::string, std::vector<int64_t>> &Procs) {
  auto Compiled = compileProgram(P, Opts);
  RunConfig RC;
  RC.ProcExtents = Procs;
  Interpreter I(Compiled->Program, RC);
  I.initArray("B", [](const std::vector<int64_t> &Idx) {
    return double(Idx[0] * Idx[0]);
  });
  RunResult RR = I.run();
  for (const std::string &V : RR.Violations)
    ADD_FAILURE() << V;
  EXPECT_TRUE(RR.Valid);
  EXPECT_EQ(RR.StmtInstances, 14u);
  const ArrayStore &A = I.array("A");
  for (int64_t Idx = 2; Idx <= 15; ++Idx) {
    double Expect = double((Idx - 1) * (Idx - 1) + (Idx + 1) * (Idx + 1));
    EXPECT_DOUBLE_EQ(A.at(A.flatten({Idx})), Expect) << "i=" << Idx;
  }
  EXPECT_GT(RR.Messages, 0u); // boundary exchange happened
}

TEST(EndToEnd, Stencil1DBlockFixed) {
  runStencil(stencilProgram(false), {}, {{"P", {4}}});
}

TEST(EndToEnd, Stencil1DNoSplitting) {
  CompilerOptions Opts;
  Opts.LoopSplitting = false;
  runStencil(stencilProgram(false), Opts, {{"P", {4}}});
}

TEST(EndToEnd, Stencil1DNoCoalescing) {
  CompilerOptions Opts;
  Opts.Coalescing = false;
  runStencil(stencilProgram(false), Opts, {{"P", {4}}});
}

TEST(EndToEnd, Stencil1DSymbolicProcs) {
  // Compile once for an unknown number of processors (VP block model),
  // execute with 4 and with 2.
  Program P = stencilProgram(true);
  auto Compiled = compileProgram(P);
  for (int64_t NP : {1, 2, 4}) {
    RunConfig RC;
    RC.ProcExtents = {{"P", {NP}}};
    Interpreter I(Compiled->Program, RC);
    I.initArray("B", [](const std::vector<int64_t> &Idx) {
      return double(Idx[0]);
    });
    RunResult RR = I.run();
    for (const std::string &V : RR.Violations)
      ADD_FAILURE() << "NP=" << NP << ": " << V;
    const ArrayStore &A = I.array("A");
    for (int64_t Idx = 2; Idx <= 15; ++Idx)
      EXPECT_DOUBLE_EQ(A.at(A.flatten({Idx})), 2.0 * Idx)
          << "NP=" << NP << " i=" << Idx;
  }
}

TEST(EndToEnd, Stencil1DCyclicSymbolic) {
  // CYCLIC distribution with a symbolic processor count: exercises the
  // cyclic VP model with Figure 6's strided VP loops.
  Program P("stencilcyc");
  P.addProcs("P", {Program::procDimSym("NP")});
  P.addTemplate("T", {range(1, 16)});
  P.addArray("A", {range(1, 16)});
  P.addArray("B", {range(1, 16)});
  P.addAlign({"A", "T", {alignDim(0)}});
  P.addAlign({"B", "T", {alignDim(0)}});
  P.addDistribute({"T", "P", {distCyclic()}});
  Procedure &Proc = P.addProcedure("main");
  ComputeNest N;
  N.Name = "stencil";
  N.Loops = {loop("i", 2, 15)};
  N.Stmts = {parseStatement("A(i) = B(i-1) + B(i+1)")};
  P.addNest(Proc, N);

  auto Compiled = compileProgram(P);
  for (int64_t NP : {1, 2, 3, 4}) {
    RunConfig RC;
    RC.ProcExtents = {{"P", {NP}}};
    Interpreter I(Compiled->Program, RC);
    I.initArray("B", [](const std::vector<int64_t> &Idx) {
      return double(3 * Idx[0] + 1);
    });
    RunResult RR = I.run();
    for (const std::string &V : RR.Violations)
      ADD_FAILURE() << "NP=" << NP << ": " << V;
    const ArrayStore &A = I.array("A");
    for (int64_t Idx = 2; Idx <= 15; ++Idx)
      EXPECT_DOUBLE_EQ(A.at(A.flatten({Idx})), double(6 * Idx + 2))
          << "NP=" << NP << " i=" << Idx;
  }
}

TEST(EndToEnd, Jacobi2DBlockBlock) {
  // One Jacobi sweep on (BLOCK,BLOCK) over 2x2 processors.
  Program P("jacobi2d");
  P.addProcs("PR", {Program::procDim(2), Program::procDim(2)});
  P.addTemplate("T", {range(1, 12), range(1, 12)});
  P.addArray("U", {range(1, 12), range(1, 12)});
  P.addArray("V", {range(1, 12), range(1, 12)});
  P.addAlign({"U", "T", {alignDim(0), alignDim(1)}});
  P.addAlign({"V", "T", {alignDim(0), alignDim(1)}});
  P.addDistribute({"T", "PR", {distBlock(), distBlock()}});
  Procedure &Proc = P.addProcedure("main");
  ComputeNest N;
  N.Name = "sweep";
  N.Loops = {loop("i", 2, 11), loop("j", 2, 11)};
  N.Stmts = {parseStatement(
      "V(i,j) = 0.25*(U(i-1,j) + U(i+1,j) + U(i,j-1) + U(i,j+1))")};
  P.addNest(Proc, N);

  auto Compiled = compileProgram(P);
  EXPECT_GT(Compiled->NumCommEvents, 0u);
  RunConfig RC;
  Interpreter I(Compiled->Program, RC);
  auto Init = [](const std::vector<int64_t> &Idx) {
    return double(Idx[0] * 100 + Idx[1]);
  };
  I.initArray("U", Init);
  RunResult RR = I.run();
  for (const std::string &V : RR.Violations)
    ADD_FAILURE() << V;
  EXPECT_TRUE(RR.Valid);
  const ArrayStore &V = I.array("V");
  for (int64_t Ii = 2; Ii <= 11; ++Ii)
    for (int64_t Jj = 2; Jj <= 11; ++Jj) {
      double Expect = 0.25 * (Init({Ii - 1, Jj}) + Init({Ii + 1, Jj}) +
                              Init({Ii, Jj - 1}) + Init({Ii, Jj + 1}));
      EXPECT_DOUBLE_EQ(V.at(V.flatten({Ii, Jj})), Expect)
          << Ii << "," << Jj;
    }
}

TEST(EndToEnd, TimeLoopWithReduction) {
  // Iterated relaxation with a convergence reduction: u(i) <- avg of
  // neighbours; diff accumulated per proc and max-reduced.
  Program P("relax");
  P.addProcs("P", {Program::procDim(4)});
  P.addTemplate("T", {range(1, 16)});
  P.addArray("U", {range(1, 16)});
  P.addArray("V", {range(1, 16)});
  P.addAlign({"U", "T", {alignDim(0)}});
  P.addAlign({"V", "T", {alignDim(0)}});
  P.addDistribute({"T", "P", {distBlock()}});
  Procedure &Proc = P.addProcedure("main");
  Phase &Loop0 = P.addSeqLoop(Proc, "t", 3);
  {
    ComputeNest N;
    N.Name = "avg";
    N.Loops = {loop("i", 2, 15)};
    N.Stmts = {parseStatement("V(i) = (U(i-1) + U(i+1) + U(i))/3 accum max "
                              "diff abs(V(i) - U(i))")};
    P.addNestIn(Loop0, N);
  }
  {
    ComputeNest N;
    N.Name = "copyback";
    N.Loops = {loop("i", 2, 15)};
    N.Stmts = {parseStatement("U(i) = V(i)")};
    P.addNestIn(Loop0, N);
  }
  Reduction R;
  R.O = Reduction::Op::Max;
  R.Name = "diff";
  P.addReductionIn(Loop0, R);

  auto Compiled = compileProgram(P);
  RunConfig RC;
  Interpreter I(Compiled->Program, RC);
  I.initArray("U", [](const std::vector<int64_t> &Idx) {
    return Idx[0] == 8 ? 16.0 : 0.0;
  });
  RunResult RR = I.run();
  for (const std::string &V : RR.Violations)
    ADD_FAILURE() << V;
  EXPECT_TRUE(RR.Valid);

  // Serial reference.
  std::vector<double> U(17, 0.0), V(17, 0.0);
  U[8] = 16.0;
  for (int T = 0; T != 3; ++T) {
    for (int Ii = 2; Ii <= 15; ++Ii)
      V[Ii] = (U[Ii - 1] + U[Ii + 1] + U[Ii]) / 3.0;
    for (int Ii = 2; Ii <= 15; ++Ii)
      U[Ii] = V[Ii];
  }
  const ArrayStore &AU = I.array("U");
  for (int64_t Ii = 2; Ii <= 15; ++Ii)
    EXPECT_NEAR(AU.at(AU.flatten({Ii})), U[Ii], 1e-12) << "i=" << Ii;
  EXPECT_GT(RR.FinalAccums.at("diff"), 0.0);
}

TEST(EndToEnd, NonOwnerComputesWriteComm) {
  // ON_HOME B(i-1): iteration i runs on B(i-1)'s owner; writes to A(i)
  // cross block boundaries and must be communicated to A's owner.
  Program P("nonowner");
  P.addProcs("P", {Program::procDim(4)});
  P.addTemplate("T", {range(1, 16)});
  P.addArray("A", {range(1, 16)});
  P.addArray("B", {range(1, 16)});
  P.addAlign({"A", "T", {alignDim(0)}});
  P.addAlign({"B", "T", {alignDim(0)}});
  P.addDistribute({"T", "P", {distBlock()}});
  Procedure &Proc = P.addProcedure("main");
  ComputeNest N;
  N.Name = "shift";
  N.Loops = {loop("i", 2, 16)};
  N.Stmts = {parseStatement("A(i) = 2*B(i-1) onhome B(i-1)")};
  P.addNest(Proc, N);

  auto Compiled = compileProgram(P);
  RunConfig RC;
  Interpreter I(Compiled->Program, RC);
  I.initArray("B",
              [](const std::vector<int64_t> &Idx) { return double(Idx[0]); });
  RunResult RR = I.run();
  for (const std::string &V : RR.Violations)
    ADD_FAILURE() << V;
  EXPECT_TRUE(RR.Valid);
  const ArrayStore &A = I.array("A");
  for (int64_t Ii = 2; Ii <= 16; ++Ii)
    EXPECT_DOUBLE_EQ(A.at(A.flatten({Ii})), 2.0 * (Ii - 1)) << Ii;
  EXPECT_GT(RR.Messages, 0u);
}

TEST(EndToEnd, PipelinedPlacement) {
  // A recurrence along i: A(i,j) = A(i-1,j) + B(i,j) with (BLOCK,*) rows.
  // Communication cannot be vectorized out of the i loop (VectorizeLevel =
  // 1): messages flow inside the sequential i loop (a pipeline).
  Program P("pipe");
  P.addProcs("P", {Program::procDim(4)});
  P.addTemplate("T", {range(1, 8), range(1, 8)});
  P.addArray("A", {range(1, 8), range(1, 8)});
  P.addArray("B", {range(1, 8), range(1, 8)});
  P.addAlign({"A", "T", {alignDim(0), alignDim(1)}});
  P.addAlign({"B", "T", {alignDim(0), alignDim(1)}});
  P.addDistribute({"T", "P", {distBlock(), distStar()}});
  Procedure &Proc = P.addProcedure("main");
  ComputeNest N;
  N.Name = "sweep";
  N.Loops = {loop("i", 2, 8), loop("j", 1, 8)};
  N.VectorizeLevel = 1; // the i-carried dependence blocks hoisting
  N.Stmts = {parseStatement("A(i,j) = A(i-1,j) + B(i,j)")};
  P.addNest(Proc, N);

  auto Compiled = compileProgram(P);
  RunConfig RC;
  Interpreter I(Compiled->Program, RC);
  I.initArray("A", [](const std::vector<int64_t> &Idx) {
    return Idx[0] == 1 ? double(Idx[1]) : 0.0;
  });
  I.initArray("B", [](const std::vector<int64_t> &) { return 1.0; });
  RunResult RR = I.run();
  for (const std::string &V : RR.Violations)
    ADD_FAILURE() << V;
  EXPECT_TRUE(RR.Valid);
  // A(i,j) = j + (i-1).
  const ArrayStore &A = I.array("A");
  for (int64_t Ii = 2; Ii <= 8; ++Ii)
    for (int64_t Jj = 1; Jj <= 8; ++Jj)
      EXPECT_DOUBLE_EQ(A.at(A.flatten({Ii, Jj})), double(Jj + Ii - 1))
          << Ii << "," << Jj;
}

} // namespace
