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
/// *structure*, which this generator matches; the numerics are generic and
/// runnable for validity checks.
///
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"

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
    P.addArray(A, {range(1, N), range(1, N), range(1, N)});
    P.addAlign({A, "T", {alignDim(0), alignDim(1), alignDim(2)}});
  }
  P.addArray("Q", {range(1, 5), range(1, N), range(1, N), range(1, N)});
  P.addAlign({"Q", "T", {alignDim(1), alignDim(2), alignDim(3)}});
  P.addDistribute({"T", "PG", {distStar(), distBlock(), distBlock()}});

  const char *Arrays3[] = {"U", "V", "W"};
  for (unsigned Pi = 0; Pi != Procedures; ++Pi) {
    Procedure &Proc = P.addProcedure("sub" + std::to_string(Pi));
    unsigned Kind = Pi % 5;
    const char *Src = Arrays3[Pi % 3];
    const char *Dst = Arrays3[(Pi + 1) % 3];
    switch (Kind) {
    case 0: {
      // compute_rhs-like: 7-point stencil, shifts in both distributed dims.
      ComputeNest Nest;
      Nest.Name = Proc.Name + "/rhs";
      Nest.Loops = {loop("i", 2, N - 1), loop("j", 2, N - 1),
                    loop("k", 2, N - 1)};
      Statement S;
      S.Write = ref(Dst, {"i", "j", "k"});
      S.Reads = {ref(Src, {"i", AffineExpr("j") - 1, "k"}),
                 ref(Src, {"i", AffineExpr("j") + 1, "k"}),
                 ref(Src, {"i", "j", AffineExpr("k") - 1}),
                 ref(Src, {"i", "j", AffineExpr("k") + 1}),
                 ref(Src, {AffineExpr("i") - 1, "j", "k"}),
                 ref(Src, {AffineExpr("i") + 1, "j", "k"})};
      S.SemanticsId = 0;
      S.Cost = 8;
      Nest.Stmts = {S};
      P.addNest(Proc, Nest);
      break;
    }
    case 1: {
      // y_solve-like: pipelined recurrence along the first distributed dim.
      ComputeNest Nest;
      Nest.Name = Proc.Name + "/ysolve";
      Nest.Loops = {loop("j", 2, N), loop("i", 1, N), loop("k", 1, N)};
      Nest.VectorizeLevel = 1;
      Statement S;
      S.Write = ref(Dst, {"i", "j", "k"});
      S.Reads = {ref(Dst, {"i", AffineExpr("j") - 1, "k"}),
                 ref(Src, {"i", "j", "k"})};
      S.SemanticsId = 1;
      S.Cost = 3;
      Nest.Stmts = {S};
      P.addNest(Proc, Nest);
      break;
    }
    case 2: {
      // Non-owner CP (partial replication style): run on the reader's home.
      ComputeNest Nest;
      Nest.Name = Proc.Name + "/nonowner";
      Nest.Loops = {loop("i", 1, N), loop("j", 2, N), loop("k", 1, N)};
      Statement S;
      S.Write = ref(Dst, {"i", "j", "k"});
      S.Reads = {ref(Src, {"i", AffineExpr("j") - 1, "k"})};
      S.OnHome = {ref(Src, {"i", AffineExpr("j") - 1, "k"})};
      S.SemanticsId = 2;
      S.Cost = 2;
      Nest.Stmts = {S};
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
      Statement S1;
      S1.Write = ref("Q", {2, "i", "j", "k"});
      S1.Reads = {ref(Src, {"i", "j", AffineExpr("k") - 1}),
                  ref(Src, {"i", "j", AffineExpr("k") + 1})};
      S1.SemanticsId = 3;
      S1.Cost = 4;
      Statement S2;
      S2.Write = ref(Dst, {"i", "j", "k"});
      S2.Reads = {ref(Src, {"i", "j", "k"})};
      S2.SemanticsId = 4;
      S2.Cost = 1;
      Nest.Stmts = {S1, S2};
      P.addNest(Proc, Nest);
      break;
    }
    default: {
      // add-like local sweep plus a reduction.
      ComputeNest Nest;
      Nest.Name = Proc.Name + "/add";
      Nest.Loops = {loop("i", 1, N), loop("j", 1, N), loop("k", 1, N)};
      Statement S;
      S.Write = ref(Dst, {"i", "j", "k"});
      S.Reads = {ref(Dst, {"i", "j", "k"}), ref(Src, {"i", "j", "k"})};
      S.SemanticsId = 4;
      S.Cost = 2;
      Nest.Stmts = {S};
      P.addNest(Proc, Nest);
      Reduction R;
      R.O = Reduction::Op::Sum;
      R.Name = "rnorm";
      P.addReduction(Proc, R);
      break;
    }
    }
  }

  App.Setup = [](spmd::Interpreter &I) {
    auto Avg = [](std::span<const double> Rd,
                  std::span<const int64_t>, AccumMap &) {
      double S = 0;
      for (double V : Rd)
        S += V;
      return S / double(Rd.size());
    };
    for (int Id = 0; Id != 5; ++Id)
      I.setSemantics(Id, Avg);
    for (const char *A : {"U", "V", "W"})
      I.initArray(A, [](const std::vector<int64_t> &Idx) {
        return double(Idx[0] + 2 * Idx[1] + 3 * Idx[2]);
      });
    I.initArray("Q", [](const std::vector<int64_t> &) { return 0.0; });
  };
  // No serial check: this is the compile-time subject. Validity (ownership
  // and message matching) is still verified by the interpreter.
  return App;
}
