//===- apps/Gauss.cpp - Gaussian elimination (the Figure 5 subject) -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LU-style elimination on a (CYCLIC,CYCLIC) distribution over a symbolic
/// P1 x P2 processor grid: the update at pivot step pv reads the pivot row
/// A(pv, j) and pivot column A(i, pv), so only the virtual processors
/// owning pivot elements send while every busy VP receives — the Figure 5
/// active-VP structure, exercised end to end.
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

AppInstance apps::makeGauss(int64_t N) {
  AppInstance App;
  App.Name = "gauss";
  App.ProcArrayName = "PA";
  App.Prog = std::make_unique<Program>("gauss");
  Program &P = *App.Prog;

  P.addProcs("PA", {Program::procDimSym("P1"), Program::procDimSym("P2")});
  P.addTemplate("T", {range(1, N), range(1, N)});
  // Diagonally dominant so the elimination stays well-conditioned:
  // 1/(1+|i-j|), plus N on the diagonal.
  P.addArray("A", {range(1, N), range(1, N)}).Init =
      parseInit("(i,j) 1/(1 + abs(i - j)) + " + std::to_string(N) +
                "*max(0, 1 - abs(i - j))");
  P.addAlign({"A", "T", {alignDim(0), alignDim(1)}});
  P.addDistribute({"T", "PA", {distCyclic(), distCyclic()}});

  Procedure &Main = P.addProcedure("main");
  Phase &Piv = P.addSeqLoop(Main, "pv", N - 1);
  ComputeNest Nest;
  Nest.Name = "update";
  Nest.Loops = {loop("i", AffineExpr("pv") + 1, N),
                loop("j", AffineExpr("pv") + 1, N)};
  Nest.Stmts = {parseStatement("A(i,j) = A(i,j) - A(i,pv)*A(pv,j) cost 2")};
  P.addNestIn(Piv, Nest);

  auto Init = [N](const std::vector<int64_t> &Idx) {
    double V = 1.0 / double(1 + std::abs(Idx[0] - Idx[1]));
    if (Idx[0] == Idx[1])
      V += double(N);
    return V;
  };

  App.Check = [N, Init](Interpreter &I, std::string &Err) {
    std::vector<std::vector<double>> A(N + 1, std::vector<double>(N + 1));
    for (int64_t Ii = 1; Ii <= N; ++Ii)
      for (int64_t Jj = 1; Jj <= N; ++Jj)
        A[Ii][Jj] = Init({Ii, Jj});
    for (int64_t Pv = 1; Pv <= N - 1; ++Pv)
      for (int64_t Ii = Pv + 1; Ii <= N; ++Ii)
        for (int64_t Jj = Pv + 1; Jj <= N; ++Jj)
          A[Ii][Jj] -= A[Ii][Pv] * A[Pv][Jj];
    const ArrayStore &AA = I.array("A");
    for (int64_t Ii = 1; Ii <= N; ++Ii)
      for (int64_t Jj = 1; Jj <= N; ++Jj) {
        double Got = AA.at(AA.flatten({Ii, Jj}));
        if (std::abs(Got - A[Ii][Jj]) > 1e-8) {
          std::ostringstream OS;
          OS << "gauss mismatch at (" << Ii << "," << Jj << "): " << Got
             << " vs " << A[Ii][Jj];
          Err = OS.str();
          return false;
        }
      }
    return true;
  };
  return App;
}
