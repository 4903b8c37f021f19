//===- apps/Erlebacher.cpp - ERLEBACHER-like benchmark (Figure 7(b)) ------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature of the ERLEBACHER 3-D compact-differencing code with the
/// paper's (*,*,BLOCK) distribution: local x and y sweeps, a vectorized
/// z-direction boundary exchange, and a pipelined z recurrence with
/// communication placed inside the k loop ("a pipelined communication
/// pattern with numerous relatively small messages", Section 7), plus a
/// sum reduction per step.
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

namespace {
constexpr double CPipe = 0.4;
} // namespace

AppInstance apps::makeErlebacher(int64_t N, int64_t Steps) {
  AppInstance App;
  App.Name = "erlebacher";
  App.ProcArrayName = "P";
  App.Prog = std::make_unique<Program>("erlebacher");
  Program &P = *App.Prog;

  P.addProcs("P", {Program::procDimSym("NP")});
  P.addTemplate("T", {range(1, N), range(1, N), range(1, N)});
  // F holds the data; D starts at 0.
  P.addArray("F", {range(1, N), range(1, N), range(1, N)}).Init =
      parseInit("(i,j,k) sin(0.1*i)*cos(0.1*j) + 0.05*k");
  P.addArray("D", {range(1, N), range(1, N), range(1, N)});
  for (const char *A : {"F", "D"})
    P.addAlign({A, "T", {alignDim(0), alignDim(1), alignDim(2)}});
  P.addDistribute({"T", "P", {distStar(), distStar(), distBlock()}});

  Procedure &Main = P.addProcedure("main");
  Phase &Time = P.addSeqLoop(Main, "t", Steps);

  // x and y central differences: fully local under (*,*,BLOCK).
  {
    ComputeNest Nest;
    Nest.Name = "xysweep";
    Nest.Loops = {loop("k", 1, N), loop("i", 2, N - 1),
                  loop("j", 2, N - 1)};
    Nest.Stmts = {parseStatement(
        "D(i,j,k) = 0.5*(-F(i-1,j,k) + F(i+1,j,k)) + "
        "0.5*(-F(i,j-1,k) + F(i,j+1,k)) cost 4")};
    P.addNestIn(Time, Nest);
  }
  // z central difference: nearest-neighbour exchange in the distributed
  // dimension, fully vectorized out of the nest.
  {
    ComputeNest Nest;
    Nest.Name = "zsweep";
    // Full (i,j) planes: the exchanged k-boundary is then a whole plane,
    // contiguous in column-major order (the Section 3.3 in-place case).
    Nest.Loops = {loop("k", 2, N - 1), loop("i", 1, N), loop("j", 1, N)};
    Nest.Stmts = {parseStatement(
        "D(i,j,k) = D(i,j,k) + 0.5*(-F(i,j,k-1) + F(i,j,k+1)) cost 3 "
        "accum sum dsum D(i,j,k)")};
    P.addNestIn(Time, Nest);
  }
  // Pipelined z recurrence: the k-carried dependence keeps communication
  // inside the k loop (VectorizeLevel = 1).
  {
    ComputeNest Nest;
    Nest.Name = "ztri";
    Nest.Loops = {loop("k", 2, N), loop("i", 1, N), loop("j", 1, N)};
    Nest.VectorizeLevel = 1;
    Nest.Stmts = {
        parseStatement("D(i,j,k) = D(i,j,k) - 0.4*D(i,j,k-1) cost 2")};
    P.addNestIn(Time, Nest);
  }
  Reduction R;
  R.O = Reduction::Op::Sum;
  R.Name = "dsum";
  P.addReductionIn(Time, R);

  auto Init = [](const std::vector<int64_t> &Idx) {
    return std::sin(0.1 * double(Idx[0])) * std::cos(0.1 * double(Idx[1])) +
           0.05 * double(Idx[2]);
  };

  App.Check = [N, Steps, Init](Interpreter &I, std::string &Err) {
    auto Flat = [N](int64_t Ii, int64_t Jj, int64_t Kk) {
      return ((Kk - 1) * N + (Jj - 1)) * N + (Ii - 1);
    };
    std::vector<double> F(N * N * N), D(N * N * N, 0.0);
    for (int64_t Kk = 1; Kk <= N; ++Kk)
      for (int64_t Jj = 1; Jj <= N; ++Jj)
        for (int64_t Ii = 1; Ii <= N; ++Ii)
          F[Flat(Ii, Jj, Kk)] = Init({Ii, Jj, Kk});
    for (int64_t T = 0; T != Steps; ++T) {
      for (int64_t Kk = 1; Kk <= N; ++Kk)
        for (int64_t Ii = 2; Ii <= N - 1; ++Ii)
          for (int64_t Jj = 2; Jj <= N - 1; ++Jj)
            D[Flat(Ii, Jj, Kk)] =
                0.5 * (F[Flat(Ii + 1, Jj, Kk)] - F[Flat(Ii - 1, Jj, Kk)]) +
                0.5 * (F[Flat(Ii, Jj + 1, Kk)] - F[Flat(Ii, Jj - 1, Kk)]);
      for (int64_t Kk = 2; Kk <= N - 1; ++Kk)
        for (int64_t Ii = 1; Ii <= N; ++Ii)
          for (int64_t Jj = 1; Jj <= N; ++Jj)
            D[Flat(Ii, Jj, Kk)] += 0.5 * (F[Flat(Ii, Jj, Kk + 1)] -
                                          F[Flat(Ii, Jj, Kk - 1)]);
      for (int64_t Kk = 2; Kk <= N; ++Kk)
        for (int64_t Ii = 1; Ii <= N; ++Ii)
          for (int64_t Jj = 1; Jj <= N; ++Jj)
            D[Flat(Ii, Jj, Kk)] -= CPipe * D[Flat(Ii, Jj, Kk - 1)];
    }
    const ArrayStore &AD = I.array("D");
    for (int64_t Kk = 1; Kk <= N; ++Kk)
      for (int64_t Jj = 1; Jj <= N; ++Jj)
        for (int64_t Ii = 1; Ii <= N; ++Ii) {
          double Got = AD.at(AD.flatten({Ii, Jj, Kk}));
          if (std::abs(Got - D[Flat(Ii, Jj, Kk)]) > 1e-9) {
            std::ostringstream OS;
            OS << "erlebacher mismatch at (" << Ii << "," << Jj << "," << Kk
               << "): " << Got << " vs " << D[Flat(Ii, Jj, Kk)];
            Err = OS.str();
            return false;
          }
        }
    return true;
  };
  return App;
}
