//===- tests/compiler_equivalence_test.cpp - Option-independence ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// The strongest integration property: every combination of compiler
// options (loop splitting, coalescing, the Section 5 formulation, in-place
// analysis) must produce an SPMD program with *identical numerics* on
// every processor grid — the optimizations may only change schedules and
// costs, never results. Also covers distributions the other end-to-end
// tests leave out (CYCLIC(k), mixed fixed/symbolic grids).
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"

#include <gtest/gtest.h>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;
using namespace dhpf::hpf;
using namespace dhpf::spmd;

namespace {

/// Runs one compiled program and returns the final contents of \p Array.
std::vector<double> finalArray(const SpmdProgram &SP, const AppInstance &App,
                               const std::vector<int64_t> &Shape,
                               const std::string &Array, bool &Valid) {
  RunConfig RC;
  RC.ProcExtents = {{App.ProcArrayName, Shape}};
  Interpreter I(SP, RC);
  App.Setup(I);
  RunResult RR = I.run();
  Valid = RR.Valid;
  const ArrayStore &A = I.array(Array);
  std::vector<double> Out(A.size());
  for (size_t F = 0; F != A.size(); ++F)
    Out[F] = A.at(F);
  return Out;
}

struct OptCase {
  const char *Name;
  CompilerOptions Opts;
};

std::vector<OptCase> optionMatrix() {
  std::vector<OptCase> Cases;
  Cases.push_back({"default", {}});
  CompilerOptions O;
  O.LoopSplitting = false;
  Cases.push_back({"no-split", O});
  O = {};
  O.Coalescing = false;
  Cases.push_back({"no-coalesce", O});
  O = {};
  O.CombinedFormulation = false;
  Cases.push_back({"per-ref", O});
  O = {};
  O.InPlaceAnalysis = false;
  Cases.push_back({"no-inplace", O});
  O = {};
  O.LoopSplitting = false;
  O.Coalescing = false;
  O.CombinedFormulation = false;
  O.InPlaceAnalysis = false;
  Cases.push_back({"all-off", O});
  return Cases;
}

void expectAllOptionsAgree(const std::function<AppInstance()> &Make,
                           const std::string &Array,
                           const std::vector<std::vector<int64_t>> &Shapes) {
  AppInstance Ref = Make();
  auto RefCompiled = compileProgram(*Ref.Prog);
  for (const std::vector<int64_t> &Shape : Shapes) {
    bool Valid = true;
    std::vector<double> Expect =
        finalArray(RefCompiled->Program, Ref, Shape, Array, Valid);
    EXPECT_TRUE(Valid);
    for (const OptCase &OC : optionMatrix()) {
      AppInstance App = Make();
      auto Compiled = compileProgram(*App.Prog, OC.Opts);
      bool V = true;
      std::vector<double> Got =
          finalArray(Compiled->Program, App, Shape, Array, V);
      EXPECT_TRUE(V) << OC.Name;
      ASSERT_EQ(Got.size(), Expect.size());
      for (size_t F = 0; F != Got.size(); ++F)
        ASSERT_DOUBLE_EQ(Got[F], Expect[F])
            << OC.Name << " diverges at flat index " << F;
    }
  }
}

TEST(CompilerEquivalence, JacobiAcrossOptionMatrix) {
  expectAllOptionsAgree([] { return makeJacobi(12, 2); }, "U",
                        {{2, 2}, {1, 3}});
}

TEST(CompilerEquivalence, GaussAcrossOptionMatrix) {
  expectAllOptionsAgree([] { return makeGauss(10); }, "A", {{2, 2}});
}

TEST(CompilerEquivalence, ErlebacherAcrossOptionMatrix) {
  expectAllOptionsAgree([] { return makeErlebacher(6, 1); }, "D",
                        {{2}, {3}});
}

//===----------------------------------------------------------------------===
// CYCLIC(k) end to end (fixed and symbolic processor counts).
//===----------------------------------------------------------------------===

Program cyclicKStencil(bool Symbolic, int64_t K) {
  Program P("cyck");
  if (Symbolic)
    P.addProcs("P", {Program::procDimSym("NP")});
  else
    P.addProcs("P", {Program::procDim(3)});
  P.addTemplate("T", {range(1, 24)});
  P.addArray("A", {range(1, 24)});
  P.addArray("B", {range(1, 24)});
  P.addAlign({"A", "T", {alignDim(0)}});
  P.addAlign({"B", "T", {alignDim(0)}});
  P.addDistribute({"T", "P", {distCyclicK(K)}});
  Procedure &Proc = P.addProcedure("main");
  ComputeNest N;
  N.Name = "stencil";
  N.Loops = {loop("i", 2, 23)};
  Statement S;
  S.Write = ref("A", {"i"});
  S.Reads = {ref("B", {AffineExpr("i") - 1}),
             ref("B", {AffineExpr("i") + 1})};
  S.SemanticsId = 0;
  N.Stmts = {S};
  P.addNest(Proc, N);
  return P;
}

void runCyclicK(bool Symbolic, int64_t K,
                const std::vector<int64_t> &Procs) {
  Program P = cyclicKStencil(Symbolic, K);
  auto Compiled = compileProgram(P);
  for (int64_t NP : Procs) {
    RunConfig RC;
    RC.ProcExtents = {{"P", {NP}}};
    Interpreter I(Compiled->Program, RC);
    I.setSemantics(0, [](std::span<const double> R,
                         std::span<const int64_t>, AccumMap &) {
      return R[0] * 10.0 + R[1];
    });
    I.initArray("B", [](const std::vector<int64_t> &Idx) {
      return double(Idx[0]);
    });
    RunResult RR = I.run();
    for (const std::string &V : RR.Violations)
      ADD_FAILURE() << "k=" << K << " NP=" << NP << ": " << V;
    const ArrayStore &A = I.array("A");
    for (int64_t Ii = 2; Ii <= 23; ++Ii)
      EXPECT_DOUBLE_EQ(A.at(A.flatten({Ii})),
                       10.0 * (Ii - 1) + (Ii + 1))
          << "k=" << K << " NP=" << NP << " i=" << Ii;
  }
}

TEST(CyclicK, FixedProcs) { runCyclicK(false, 2, {3}); }
TEST(CyclicK, SymbolicProcsK2) { runCyclicK(true, 2, {1, 2, 3}); }
TEST(CyclicK, SymbolicProcsK3) { runCyclicK(true, 3, {2, 4}); }

//===----------------------------------------------------------------------===
// Compile-once-run-anywhere: the Section 4 headline property.
//===----------------------------------------------------------------------===

TEST(SymbolicProcs, OneProgramManyGrids) {
  AppInstance App = makeJacobi(16, 2);
  auto Compiled = compileProgram(*App.Prog);
  std::vector<double> Ref;
  for (auto Shape : {std::vector<int64_t>{1, 1}, {1, 2}, {2, 2}, {2, 3},
                     {4, 2}}) {
    bool Valid = true;
    std::vector<double> Got =
        finalArray(Compiled->Program, App, Shape, "U", Valid);
    EXPECT_TRUE(Valid);
    if (Ref.empty()) {
      Ref = Got;
      continue;
    }
    ASSERT_EQ(Got.size(), Ref.size());
    for (size_t F = 0; F != Got.size(); ++F)
      ASSERT_DOUBLE_EQ(Got[F], Ref[F])
          << "grid-dependent result at " << F;
  }
}

} // namespace
