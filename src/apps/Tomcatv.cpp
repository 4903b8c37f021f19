//===- apps/Tomcatv.cpp - TOMCATV-like benchmark (Figure 7(a)) ------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature of the SPEC92 TOMCATV mesh-generation benchmark with the
/// paper's (BLOCK,*) distribution over a 1-D symbolic processor array:
/// per time step, residual stencils over two coordinate arrays (boundary
/// exchange in the distributed dimension only), two max reductions inside a
/// relatively small main loop (the paper's noted scalability limiter), and
/// a correction sweep.
///
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"

#include <cmath>
#include <sstream>
#include <vector>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::hpf;
using namespace dhpf::spmd;

namespace {
constexpr double Omega = 0.35;
} // namespace

AppInstance apps::makeTomcatv(int64_t N, int64_t Steps) {
  AppInstance App;
  App.Name = "tomcatv";
  App.ProcArrayName = "P";
  App.Prog = std::make_unique<Program>("tomcatv");
  Program &P = *App.Prog;

  P.addProcs("P", {Program::procDimSym("NP")});
  P.addTemplate("T", {range(1, N), range(1, N)});
  for (const char *A : {"X", "Y", "RX", "RY"}) {
    P.addArray(A, {range(1, N), range(1, N)});
    P.addAlign({A, "T", {alignDim(0), alignDim(1)}});
  }
  P.addDistribute({"T", "P", {distBlock(), distStar()}});

  Procedure &Main = P.addProcedure("main");
  Phase &Time = P.addSeqLoop(Main, "t", Steps);

  // Residual stencils: one statement group (identical owner-computes CPs),
  // two coalesced communication events (X and Y boundary rows).
  {
    ComputeNest Nest;
    Nest.Name = "resid";
    Nest.Loops = {loop("i", 2, N - 1), loop("j", 2, N - 1)};
    Statement SX;
    SX.Write = ref("RX", {"i", "j"});
    SX.Reads = {ref("X", {AffineExpr("i") - 1, "j"}),
                ref("X", {AffineExpr("i") + 1, "j"}),
                ref("X", {"i", AffineExpr("j") - 1}),
                ref("X", {"i", AffineExpr("j") + 1}),
                ref("X", {"i", "j"})};
    SX.SemanticsId = 0;
    SX.Cost = 7;
    Statement SY = SX;
    SY.Write = ref("RY", {"i", "j"});
    for (auto &Rd : SY.Reads)
      Rd.Array = "Y";
    SY.SemanticsId = 0;
    Nest.Stmts = {SX, SY};
    P.addNestIn(Time, Nest);
  }
  // Two maxloc-style reductions (the paper implements these specially;
  // here they are modelled as max all-reduces of the residual magnitudes).
  {
    Reduction R;
    R.O = Reduction::Op::MaxLoc;
    R.Name = "rxm";
    P.addReductionIn(Time, R);
    R.Name = "rym";
    P.addReductionIn(Time, R);
  }
  // Correction sweep: purely local.
  {
    ComputeNest Nest;
    Nest.Name = "update";
    Nest.Loops = {loop("i", 2, N - 1), loop("j", 2, N - 1)};
    Statement SX;
    SX.Write = ref("X", {"i", "j"});
    SX.Reads = {ref("X", {"i", "j"}), ref("RX", {"i", "j"})};
    SX.SemanticsId = 1;
    SX.Cost = 2;
    Statement SY = SX;
    SY.Write = ref("Y", {"i", "j"});
    SY.Reads = {ref("Y", {"i", "j"}), ref("RY", {"i", "j"})};
    Nest.Stmts = {SX, SY};
    P.addNestIn(Time, Nest);
  }

  auto InitX = [](const std::vector<int64_t> &Idx) {
    return 0.01 * double(Idx[0]) + std::sin(0.1 * double(Idx[1]));
  };
  auto InitY = [](const std::vector<int64_t> &Idx) {
    return 0.02 * double(Idx[1]) + std::cos(0.1 * double(Idx[0]));
  };

  App.Setup = [InitX, InitY](spmd::Interpreter &I) {
    I.setSemantics(0, [](const std::vector<double> &Rd,
                         const std::vector<int64_t> &, AccumMap &Acc) {
      double R = Rd[0] + Rd[1] + Rd[2] + Rd[3] - 4.0 * Rd[4];
      Acc["rxm"] = std::max(Acc["rxm"], std::abs(R));
      Acc["rym"] = Acc["rxm"];
      return R;
    });
    I.setSemantics(1, [](const std::vector<double> &Rd,
                         const std::vector<int64_t> &, AccumMap &) {
      return Rd[0] + Omega * Rd[1];
    });
    I.initArray("X", InitX);
    I.initArray("Y", InitY);
  };

  App.Check = [N, Steps, InitX, InitY](Interpreter &I, std::string &Err) {
    using Grid = std::vector<std::vector<double>>;
    Grid X(N + 1, std::vector<double>(N + 1)), Y = X, RX = X, RY = X;
    for (int64_t Ii = 1; Ii <= N; ++Ii)
      for (int64_t Jj = 1; Jj <= N; ++Jj) {
        X[Ii][Jj] = InitX({Ii, Jj});
        Y[Ii][Jj] = InitY({Ii, Jj});
      }
    for (int64_t T = 0; T != Steps; ++T) {
      for (int64_t Ii = 2; Ii <= N - 1; ++Ii)
        for (int64_t Jj = 2; Jj <= N - 1; ++Jj) {
          RX[Ii][Jj] = X[Ii - 1][Jj] + X[Ii + 1][Jj] + X[Ii][Jj - 1] +
                       X[Ii][Jj + 1] - 4.0 * X[Ii][Jj];
          RY[Ii][Jj] = Y[Ii - 1][Jj] + Y[Ii + 1][Jj] + Y[Ii][Jj - 1] +
                       Y[Ii][Jj + 1] - 4.0 * Y[Ii][Jj];
        }
      for (int64_t Ii = 2; Ii <= N - 1; ++Ii)
        for (int64_t Jj = 2; Jj <= N - 1; ++Jj) {
          X[Ii][Jj] += Omega * RX[Ii][Jj];
          Y[Ii][Jj] += Omega * RY[Ii][Jj];
        }
    }
    const ArrayStore &AX = I.array("X");
    const ArrayStore &AY = I.array("Y");
    for (int64_t Ii = 1; Ii <= N; ++Ii)
      for (int64_t Jj = 1; Jj <= N; ++Jj) {
        if (std::abs(AX.at(AX.flatten({Ii, Jj})) - X[Ii][Jj]) > 1e-9 ||
            std::abs(AY.at(AY.flatten({Ii, Jj})) - Y[Ii][Jj]) > 1e-9) {
          std::ostringstream OS;
          OS << "tomcatv mismatch at (" << Ii << "," << Jj << ")";
          Err = OS.str();
          return false;
        }
      }
    return true;
  };
  return App;
}
