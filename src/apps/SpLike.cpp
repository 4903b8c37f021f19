//===- apps/SpLike.cpp - Synthetic NAS-SP-scale compile subject -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A synthetic stand-in for the paper's NAS SP compile-time subject
/// (Table 1): ~30 procedures over 3-D and 4-D arrays distributed BLOCK in
/// the y and z dimensions, with stencil sweeps (shift communication in one
/// or both distributed dimensions), pipelined solver-like nests, non-owner
/// ON_HOME partitionings, and local copy nests. The paper's SP-4 uses a
/// fixed 2x2 processor grid; sp-sym leaves the total symbolic
/// (2 x number_of_processors()/2). Compile time depends on program
/// *structure*, which this generator matches; the numerics are simple
/// averages, runnable for validity checks.
///
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"

#include "hpf/HpfParser.h"

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::hpf;
using namespace dhpf::spmd;

AppInstance apps::makeSpLike(unsigned Procedures, bool SymbolicProcs,
                             int64_t N) {
  AppInstance App;
  App.Name = SymbolicProcs ? "sp-sym" : "sp-4";
  App.ProcArrayName = "PG";
  App.Prog = std::make_unique<Program>(App.Name);
  Program &P = *App.Prog;

  if (SymbolicProcs)
    P.addProcs("PG", {Program::procDim(2), Program::procDimSym("PH")});
  else
    P.addProcs("PG", {Program::procDim(2), Program::procDim(2)});
  P.addTemplate("T", {range(1, N), range(1, N), range(1, N)});
  // Three 3-D state arrays plus one 4-D array (leading free dimension of
  // extent 5, like SP's u(5,N,N,N)).
  for (const char *A : {"U", "V", "W"}) {
    P.addArray(A, {range(1, N), range(1, N), range(1, N)}).Init =
        parseInit("(i,j,k) i + 2*j + 3*k");
    P.addAlign({A, "T", {alignDim(0), alignDim(1), alignDim(2)}});
  }
  P.addArray("Q", {range(1, 5), range(1, N), range(1, N), range(1, N)});
  P.addAlign({"Q", "T", {alignDim(1), alignDim(2), alignDim(3)}});
  P.addDistribute({"T", "PG", {distStar(), distBlock(), distBlock()}});

  const char *Arrays3[] = {"U", "V", "W"};
  for (unsigned Pi = 0; Pi != Procedures; ++Pi) {
    Procedure &Proc = P.addProcedure("sub" + std::to_string(Pi));
    unsigned Kind = Pi % 5;
    const std::string Src = Arrays3[Pi % 3];
    const std::string Dst = Arrays3[(Pi + 1) % 3];
    switch (Kind) {
    case 0: {
      // compute_rhs-like: 7-point stencil, shifts in both distributed dims.
      ComputeNest Nest;
      Nest.Name = Proc.Name + "/rhs";
      Nest.Loops = {loop("i", 2, N - 1), loop("j", 2, N - 1),
                    loop("k", 2, N - 1)};
      Nest.Stmts = {parseStatement(
          Dst + "(i,j,k) = (" + Src + "(i,j-1,k) + " + Src + "(i,j+1,k) + " +
          Src + "(i,j,k-1) + " + Src + "(i,j,k+1) + " + Src + "(i-1,j,k) + " +
          Src + "(i+1,j,k))/6 cost 8")};
      P.addNest(Proc, Nest);
      break;
    }
    case 1: {
      // y_solve-like: pipelined recurrence along the first distributed dim.
      ComputeNest Nest;
      Nest.Name = Proc.Name + "/ysolve";
      Nest.Loops = {loop("j", 2, N), loop("i", 1, N), loop("k", 1, N)};
      Nest.VectorizeLevel = 1;
      Nest.Stmts = {parseStatement(Dst + "(i,j,k) = (" + Dst + "(i,j-1,k) + " +
                                   Src + "(i,j,k))/2 cost 3")};
      P.addNest(Proc, Nest);
      break;
    }
    case 2: {
      // Non-owner CP (partial replication style): run on the reader's home.
      ComputeNest Nest;
      Nest.Name = Proc.Name + "/nonowner";
      Nest.Loops = {loop("i", 1, N), loop("j", 2, N), loop("k", 1, N)};
      Nest.Stmts = {parseStatement(Dst + "(i,j,k) = " + Src + "(i,j-1,k) onhome " +
                                   Src + "(i,j-1,k) cost 2")};
      P.addNest(Proc, Nest);
      break;
    }
    case 3: {
      // 4-D flux update from the 3-D state, plus a local copy (a two-group
      // nest: differing CPs exercise multi-mapping code generation).
      ComputeNest Nest;
      Nest.Name = Proc.Name + "/flux";
      Nest.Loops = {loop("i", 1, N), loop("j", 1, N),
                    loop("k", 2, N - 1)};
      Nest.Stmts = {parseStatement("Q(2,i,j,k) = (" + Src + "(i,j,k-1) + " +
                                   Src + "(i,j,k+1))/2 cost 4"),
                    parseStatement(Dst + "(i,j,k) = " + Src + "(i,j,k)")};
      P.addNest(Proc, Nest);
      break;
    }
    default: {
      // add-like local sweep plus a reduction.
      ComputeNest Nest;
      Nest.Name = Proc.Name + "/add";
      Nest.Loops = {loop("i", 1, N), loop("j", 1, N), loop("k", 1, N)};
      Nest.Stmts = {parseStatement(Dst + "(i,j,k) = (" + Dst + "(i,j,k) + " +
                                   Src + "(i,j,k))/2 cost 2 accum sum rnorm " +
                                   Dst + "(i,j,k)")};
      P.addNest(Proc, Nest);
      Reduction R;
      R.O = Reduction::Op::Sum;
      R.Name = "rnorm";
      P.addReduction(Proc, R);
      break;
    }
    }
  }

  // No serial check: this is the compile-time subject. Validity (ownership
  // and message matching) is still verified by the interpreter.
  return App;
}
