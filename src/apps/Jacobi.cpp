//===- apps/Jacobi.cpp - JACOBI benchmark (Figure 7(c)) -------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "JACOBI - a simple 4-point stencil kernel with a convergence loop",
/// distributed (BLOCK,BLOCK) on a 2 x (number_of_processors()/2) grid with
/// the processor count left symbolic (Section 7).
///
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"

#include "hpf/HpfParser.h"

#include <cmath>
#include <sstream>
#include <vector>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::hpf;
using namespace dhpf::spmd;

AppInstance apps::makeJacobi(int64_t N, int64_t Steps) {
  AppInstance App;
  App.Name = "jacobi";
  App.ProcArrayName = "PR";
  App.Prog = std::make_unique<Program>("jacobi");
  Program &P = *App.Prog;

  // A 2 x (number_of_processors()/2) grid, both extents symbolic so the
  // same compiled code runs on any grid (the paper leaves P unspecified).
  P.addProcs("PR", {Program::procDimSym("PV"), Program::procDimSym("PH")});
  P.addTemplate("T", {range(1, N), range(1, N)});
  for (const char *A : {"U", "V"})
    P.addArray(A, {range(1, N), range(1, N)}).Init =
        parseInit("(i,j) sin(0.05*i) + cos(0.07*j)");
  P.addAlign({"U", "T", {alignDim(0), alignDim(1)}});
  P.addAlign({"V", "T", {alignDim(0), alignDim(1)}});
  P.addDistribute({"T", "PR", {distBlock(), distBlock()}});

  Procedure &Main = P.addProcedure("main");
  Phase &Time = P.addSeqLoop(Main, "t", Steps);
  {
    ComputeNest Nest;
    Nest.Name = "sweep";
    Nest.Loops = {loop("i", 2, N - 1), loop("j", 2, N - 1)};
    // 4 adds, 1 mul, 1 diff; the residual is the largest change.
    Nest.Stmts = {parseStatement(
        "V(i,j) = 0.25*(U(i-1,j) + U(i+1,j) + U(i,j-1) + U(i,j+1)) cost 6 "
        "accum max resid abs(V(i,j) - U(i,j))")};
    P.addNestIn(Time, Nest);
  }
  {
    ComputeNest Nest;
    Nest.Name = "copyback";
    Nest.Loops = {loop("i", 2, N - 1), loop("j", 2, N - 1)};
    Nest.Stmts = {parseStatement("U(i,j) = V(i,j)")};
    P.addNestIn(Time, Nest);
  }
  Reduction R;
  R.O = Reduction::Op::Max;
  R.Name = "resid";
  P.addReductionIn(Time, R);

  auto Init = [](const std::vector<int64_t> &Idx) {
    return std::sin(0.05 * double(Idx[0])) + std::cos(0.07 * double(Idx[1]));
  };

  App.Check = [N, Steps, Init](Interpreter &I, std::string &Err) {
    std::vector<std::vector<double>> U(N + 1, std::vector<double>(N + 1)),
        V = U;
    for (int64_t Ii = 1; Ii <= N; ++Ii)
      for (int64_t Jj = 1; Jj <= N; ++Jj)
        U[Ii][Jj] = V[Ii][Jj] = Init({Ii, Jj});
    for (int64_t T = 0; T != Steps; ++T) {
      for (int64_t Ii = 2; Ii <= N - 1; ++Ii)
        for (int64_t Jj = 2; Jj <= N - 1; ++Jj)
          V[Ii][Jj] = 0.25 * (U[Ii - 1][Jj] + U[Ii + 1][Jj] +
                              U[Ii][Jj - 1] + U[Ii][Jj + 1]);
      for (int64_t Ii = 2; Ii <= N - 1; ++Ii)
        for (int64_t Jj = 2; Jj <= N - 1; ++Jj)
          U[Ii][Jj] = V[Ii][Jj];
    }
    const ArrayStore &AU = I.array("U");
    for (int64_t Ii = 1; Ii <= N; ++Ii)
      for (int64_t Jj = 1; Jj <= N; ++Jj) {
        double Got = AU.at(AU.flatten({Ii, Jj}));
        if (std::abs(Got - U[Ii][Jj]) > 1e-10) {
          std::ostringstream OS;
          OS << "jacobi mismatch at (" << Ii << "," << Jj << "): " << Got
             << " vs " << U[Ii][Jj];
          Err = OS.str();
          return false;
        }
      }
    return true;
  };
  return App;
}
