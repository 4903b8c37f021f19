//===- tests/stmt_body_test.cpp - Statement bodies in the program --------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// A statement's right-hand side, its accumulator clause and an array's
// initial value are part of the mini-HPF program (hpf/ValueExpr.h):
//
//  1. Every operator and function gives identical bits on the tree oracle,
//     the bytecode engine and the native kernels, on signed zeros,
//     infinities, NaN, subnormals, min/max ties and NaN in either operand
//     position — and the bits std:: arithmetic gives.
//  2. Printing is a fixpoint of parsing, and literals round-trip exactly
//     through .hpf text, .spmd text and the emitted C.
//  3. Hostile bodies draw located errors, never a crash: deep nesting,
//     huge sums, unknown functions, accumulators into undeclared
//     reductions, undeclared arrays.
//  4. A non-canonical program runs its own arithmetic: jacobi at 32x32
//     for 2 steps reports the serial reference's resid.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"
#include "hpf/HpfParser.h"
#include "hpf/HpfPrinter.h"
#include "rt/Session.h"
#include "spmd/KernelCache.h"
#include "spmd/Serialize.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace dhpf;
using namespace dhpf::spmd;

namespace {

uint64_t bits(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof B);
  return B;
}

/// The operands every operator meets: signed zeros, infinities, a quiet
/// NaN, subnormals, ordinary values and the extremes.
const std::vector<double> &specials() {
  static const std::vector<double> V = {
      0.0,     -0.0,   std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      5e-324,  -2.5e-310, DBL_MIN, 1.0,   -1.5, 0.1, DBL_MAX};
  return V;
}

/// Each operator on every (X(i), Y(j)) pair; the reference is std::.
struct OpCase {
  const char *Array;
  const char *Body;
  double (*Ref)(double, double);
};
const std::vector<OpCase> &opCases() {
  static const std::vector<OpCase> C = {
      {"RADD", "X(i) + Y(j)", [](double A, double B) { return A + B; }},
      {"RSUB", "X(i) - Y(j)", [](double A, double B) { return A - B; }},
      {"RMUL", "X(i)*Y(j)", [](double A, double B) { return A * B; }},
      {"RDIV", "X(i)/Y(j)", [](double A, double B) { return A / B; }},
      {"RNEG", "-X(i)", [](double A, double) { return -A; }},
      {"RABS", "abs(X(i))", [](double A, double) { return std::fabs(A); }},
      {"RMIN", "min(X(i), Y(j))",
       [](double A, double B) { return std::min(A, B); }},
      {"RMAX", "max(X(i), Y(j))",
       [](double A, double B) { return std::max(A, B); }},
      // Literals through every engine's spelling of them.
      {"RLIT", "X(i)*0 + 0.1 - 0.3333333333333333 + 5e-324 + -0",
       [](double A, double) {
         return A * 0 + 0.1 - 0.3333333333333333 + 5e-324 + -0.0;
       }},
  };
  return C;
}

std::string opsProgram() {
  size_t N = specials().size();
  std::string Ext = "1:" + std::to_string(N);
  std::string S = "program ops\nprocessors P(*NP)\ntemplate T(" + Ext + ", " +
                  Ext + ")\narray X(" + Ext + ")\narray Y(" + Ext + ")\n";
  for (const OpCase &C : opCases())
    S += std::string("array ") + C.Array + "(" + Ext + ", " + Ext +
         ") align (a0,a1) with T(a0,a1)\n";
  S += "distribute T(block, *) onto P\nprocedure main\n  nest ops\n"
       "    do i = 1, " +
       std::to_string(N) + "\n    do j = 1, " + std::to_string(N) + "\n";
  for (const OpCase &C : opCases())
    S += std::string("    ") + C.Array + "(i,j) = " + C.Body + "\n";
  S += "  endnest\nendprocedure\n";
  return S;
}

std::vector<std::vector<double>> runOps(const SpmdProgram &SP,
                                        EngineKind E) {
  RunConfig RC;
  RC.ProcExtents = {{"P", {2}}};
  RC.Engine = E;
  Interpreter I(SP, RC);
  auto Seed = [](const std::vector<int64_t> &Idx) {
    return specials()[Idx[0] - 1];
  };
  I.initArray("X", Seed);
  I.initArray("Y", Seed);
  RunResult R = I.run();
  EXPECT_TRUE(R.Valid);
  std::vector<std::vector<double>> Out;
  for (const OpCase &C : opCases())
    Out.push_back(I.array(C.Array).values());
  return Out;
}

TEST(StmtBody, OperatorsBitIdenticalOnEveryEngine) {
  auto Prog = hpf::parseHpfProgram(opsProgram());
  auto Compiled = core::compileProgram(*Prog);
  ASSERT_TRUE(Compiled);
  std::vector<EngineKind> Engines = {EngineKind::Tree, EngineKind::Bytecode};
  if (native::KernelCache::global().compilerAvailable())
    Engines.push_back(EngineKind::Native);
  const std::vector<double> &V = specials();
  size_t N = V.size();
  for (EngineKind E : Engines) {
    std::vector<std::vector<double>> Got = runOps(Compiled->Program, E);
    for (size_t K = 0; K != opCases().size(); ++K) {
      const OpCase &C = opCases()[K];
      // Column-major: element (i, j) is at (i-1) + (j-1)*N.
      for (size_t I = 0; I != N; ++I)
        for (size_t J = 0; J != N; ++J)
          EXPECT_EQ(bits(Got[K][I + J * N]), bits(C.Ref(V[I], V[J])))
              << C.Array << " engine " << int(E) << " on (" << V[I] << ", "
              << V[J] << ")";
    }
  }
}

/// Accumulators fold in instance order with the same operand semantics:
/// max(acc, v) ignores a NaN v, max(NaN, -1e300) keeps the NaN, and a sum
/// carries it. (Only one NaN ever meets another operand: which of two NaNs
/// an add returns is the machine's choice, not the program's.)
TEST(StmtBody, AccumulatorsFoldIdenticallyOnEveryEngine) {
  const char *Src = R"(program acc
processors P(*NP)
template T(1:12)
array X(1:12) align (a0) with T(a0)
array Y(1:12) align (a0) with T(a0)
distribute T(block) onto P
procedure main
  nest fold
    do i = 1, 12
    Y(i) = 2*X(i) accum max m abs(Y(i)) - 1
  endnest
  reduce max m
  nest sum
    do i = 1, 12
    X(i) = X(i) - 1 accum sum s max(X(i), -1e300)/3
  endnest
  reduce sum s
endprocedure
)";
  auto Prog = hpf::parseHpfProgram(Src);
  auto Compiled = core::compileProgram(*Prog);
  ASSERT_TRUE(Compiled);
  std::vector<EngineKind> Engines = {EngineKind::Tree, EngineKind::Bytecode};
  if (native::KernelCache::global().compilerAvailable())
    Engines.push_back(EngineKind::Native);
  for (int64_t NP : {1, 3}) {
    std::vector<uint64_t> Want;
    for (EngineKind E : Engines) {
      RunConfig RC;
      RC.ProcExtents = {{"P", {NP}}};
      RC.Engine = E;
      Interpreter I(Compiled->Program, RC);
      I.initArray("X", [](const std::vector<int64_t> &Idx) {
        return specials()[Idx[0] - 1];
      });
      RunResult R = I.run();
      ASSERT_TRUE(R.Valid);
      std::vector<uint64_t> Got = {bits(R.FinalAccums.at("m")),
                                   bits(R.FinalAccums.at("s"))};
      if (Want.empty())
        Want = Got;
      EXPECT_EQ(Got, Want) << "engine " << int(E) << " P=" << NP;
    }
  }
}

TEST(StmtBody, PrintParsePrintIsAFixpoint) {
  for (const apps::RegistryEntry &E : apps::appRegistry()) {
    std::string Once = hpf::printHpfProgram(*E.MakeCanonical().Prog);
    std::string Twice = hpf::printHpfProgram(*hpf::parseHpfProgram(Once));
    EXPECT_EQ(Once, Twice) << E.Name;
  }
  std::string Ops = hpf::printHpfProgram(*hpf::parseHpfProgram(opsProgram()));
  EXPECT_EQ(Ops, hpf::printHpfProgram(*hpf::parseHpfProgram(Ops)));
  // Precedence and associativity survive with the fewest parentheses.
  hpf::Statement S = hpf::parseStatement(
      "A(i) = -(B(i) - (B(i) - 2)) / (3*(B(i) + 1)) - -B(i) + min(-0, 1e300)");
  EXPECT_EQ(hpf::printValueNumber(0.1), "0.1");
  hpf::Program P("p");
  P.addArray("A", {hpf::range(1, 4)});
  P.addArray("B", {hpf::range(1, 4)});
  hpf::Procedure &Proc = P.addProcedure("main");
  hpf::ComputeNest N;
  N.Name = "n";
  N.Loops = {hpf::loop("i", 1, 4)};
  N.Stmts = {S};
  P.addNest(Proc, N);
  std::string Text = hpf::printHpfProgram(P);
  EXPECT_NE(Text.find("A(i) = -(B(i) - (B(i) - 2))/(3*(B(i) + 1)) - -B(i) + "
                      "min(-0, 1e+300)"),
            std::string::npos)
      << Text;
  EXPECT_EQ(Text, hpf::printHpfProgram(*hpf::parseHpfProgram(Text)));
}

TEST(StmtBody, LiteralsRoundTripExactly) {
  const double Lits[] = {0.1, 1.0 / 3, 5e-324, -0.0, 0.25, 1e300, 123456.75};
  for (double V : Lits) {
    std::string Text = hpf::printValueNumber(std::fabs(V));
    hpf::Statement S = hpf::parseStatement(
        std::string("A(i) = ") + (std::signbit(V) ? "-" : "") + Text);
    double Got = hpf::evalValue(S.Body, nullptr, 0, nullptr);
    EXPECT_EQ(bits(Got), bits(V)) << Text;
  }
  // Through .spmd text: serialize, parse, serialize is a fixpoint and the
  // bodies carry the literals' bits.
  auto Prog = hpf::parseHpfProgram(opsProgram());
  auto Compiled = core::compileProgram(*Prog);
  ASSERT_TRUE(Compiled);
  std::string Text = serializeSpmdProgram(Compiled->Program);
  EXPECT_EQ(Text.rfind("(spmd 3\n", 0), 0u);
  DiagnosticEngine Diags;
  auto Back = parseSpmdProgram(Text, Diags, "ops.spmd");
  ASSERT_TRUE(Back) << Diags.str();
  EXPECT_EQ(Text, serializeSpmdProgram(*Back));
  double Read[1] = {0.0};
  const CompiledStmt &Lit = Back->Stmts.back();
  EXPECT_EQ(bits(hpf::evalValue(Lit.Body, Read, 0, nullptr)),
            bits(opCases().back().Ref(0.0, 0.0)));
}

//===----------------------------------------------------------------------===//
// Hostile input
//===----------------------------------------------------------------------===//

const char *Prelude = "program h\n"                     // 1
                      "processors P(*NP)\n"             // 2
                      "template T(1:8)\n"               // 3
                      "array A(1:8) align (a0) with T(a0)\n" // 4
                      "distribute T(block) onto P\n"    // 5
                      "procedure main\n"                // 6
                      "  nest n\n"                      // 7
                      "    do i = 1, 8\n";              // 8

void expectLocatedError(const std::string &Stmt, const std::string &Needle,
                        unsigned Line = 9,
                        const std::string &Tail = "  endnest\n  reduce max "
                                                  "r\nendprocedure\n") {
  DiagnosticEngine Diags;
  auto P = hpf::parseHpfProgram(Prelude + Stmt + "\n" + Tail, Diags,
                                "hostile.hpf");
  EXPECT_FALSE(static_cast<bool>(P)) << Needle;
  std::string Text = Diags.str();
  EXPECT_NE(Text.find("hostile.hpf:" + std::to_string(Line) + ":"),
            std::string::npos)
      << Text.substr(0, 300);
  EXPECT_NE(Text.find(Needle), std::string::npos) << Text.substr(0, 300);
}

TEST(StmtBody, HostileBodiesDrawLocatedErrors) {
  expectLocatedError("    A(i) = " + std::string(1000000, '(') + "A(i)" +
                         std::string(1000000, ')'),
                     "nests deeper than");
  std::string Sum = "    A(i) = A(i)";
  for (int K = 0; K != 100000; ++K)
    Sum += " + 1";
  expectLocatedError(Sum, "nests deeper than");
  std::string Minus = "    A(i) = " + std::string(100000, '-') + "A(i)";
  expectLocatedError(Minus, "nests deeper than");
  expectLocatedError("    A(i) = frob(A(i))",
                     "unknown function or undeclared array 'frob'");
  expectLocatedError("    A(i) = B(i) + 1",
                     "unknown function or undeclared array 'B'");
  expectLocatedError("    A(i) = sin(A(i))",
                     "'sin' is only allowed in an init expression");
  expectLocatedError("    A(i) = min(A(i))", "'min' takes 2 arguments");
  expectLocatedError("    A(i) = i + 1", "'i' is not an array reference");
  expectLocatedError("    A(i) = A(i) accum max nope A(i)",
                     "accum names 'nope', which is not a reduce of "
                     "procedure 'main'");
  expectLocatedError("    A(i) = A(i) accum prod r A(i)",
                     "unknown accumulation op");
  expectLocatedError("    A(i) = cost 2", "needs a right-hand side");
  expectLocatedError("    A(i) =", "needs a right-hand side");
  expectLocatedError("    A(i) = A(i) sem 0", "'sem' is gone");
  expectLocatedError("    A(i) = A(i) A(i)", "expected an operator");
  expectLocatedError("    A(i) = 1e999", "literal out of range");
  // An init value is checked the same way, on its own line.
  DiagnosticEngine Diags;
  EXPECT_FALSE(static_cast<bool>(hpf::parseHpfProgram(
      "program h\narray A(1:8) init (a0) cos(a1)\n", Diags, "init.hpf")));
  EXPECT_NE(Diags.str().find("init.hpf:2:"), std::string::npos);
  EXPECT_NE(Diags.str().find("unknown index name 'a1'"), std::string::npos);
}

TEST(StmtBody, HostileSpmdBodiesDrawLocatedErrors) {
  auto Prog = hpf::parseHpfProgram(opsProgram());
  auto Compiled = core::compileProgram(*Prog);
  ASSERT_TRUE(Compiled);
  std::string Text = serializeSpmdProgram(Compiled->Program);
  std::string Body = "(+ (r 0) (r 1))";
  size_t At = Text.find(Body);
  ASSERT_NE(At, std::string::npos);
  auto Reject = [&](const std::string &With, const std::string &Needle) {
    std::string Bad = Text;
    Bad.replace(At, Body.size(), With);
    DiagnosticEngine Diags;
    EXPECT_EQ(nullptr, parseSpmdProgram(Bad, Diags, "bad.spmd")) << Needle;
    EXPECT_NE(Diags.str().find("bad.spmd:"), std::string::npos);
    EXPECT_NE(Diags.str().find(Needle), std::string::npos) << Diags.str();
  };
  std::string Deep;
  for (int K = 0; K != 1000000; ++K)
    Deep += "(neg ";
  Reject(Deep, "lists nest deeper than");
  std::string Chain = "(r 0)";
  for (int K = 0; K != 200; ++K)
    Chain = "(neg " + Chain + ")";
  Reject(Chain, "too deep or too large");
  Reject("(r 7)", "read 7 out of range");
  Reject("(w)", "only meaningful in an accumulator operand");
  Reject("(sin (r 0))", "unknown value operator 'sin'");
  Reject("(+ (r 0))", "expects 2 operand(s)");
}

//===----------------------------------------------------------------------===//
// Programs compute their own arithmetic
//===----------------------------------------------------------------------===//

/// `dhpfc run` of a non-canonical jacobi runs the program's own body and
/// accumulator (no registry semantics apply): its resid is the serial
/// reference's, bit for bit, on every engine.
TEST(StmtBody, NonCanonicalJacobiReportsSerialResid) {
  const int64_t N = 32, Steps = 2;
  std::string Text = hpf::printHpfProgram(*apps::makeJacobi(N, Steps).Prog);
  auto Prog = hpf::parseHpfProgram(Text);
  auto Compiled = core::compileProgram(*Prog);
  ASSERT_TRUE(Compiled);

  std::vector<std::vector<double>> U(N + 1, std::vector<double>(N + 1)), V;
  for (int64_t I = 1; I <= N; ++I)
    for (int64_t J = 1; J <= N; ++J)
      U[I][J] = std::sin(0.05 * double(I)) + std::cos(0.07 * double(J));
  V = U;
  double Resid = 0;
  for (int64_t T = 0; T != Steps; ++T) {
    for (int64_t I = 2; I <= N - 1; ++I)
      for (int64_t J = 2; J <= N - 1; ++J) {
        V[I][J] = 0.25 * (U[I - 1][J] + U[I + 1][J] + U[I][J - 1] +
                          U[I][J + 1]);
        Resid = std::max(Resid, std::fabs(V[I][J] - U[I][J]));
      }
    for (int64_t I = 2; I <= N - 1; ++I)
      for (int64_t J = 2; J <= N - 1; ++J)
        U[I][J] = V[I][J];
  }
  ASSERT_GT(Resid, 0.0);

  rt::SessionOptions SO;
  SO.NumProcs = 4;
  std::string Err;
  auto S = rt::resolveSession(Compiled->Program, SO, Err);
  ASSERT_TRUE(S) << Err;
  EXPECT_FALSE(S->Canonical);
  std::vector<EngineKind> Engines = {EngineKind::Tree, EngineKind::Bytecode};
  if (native::KernelCache::global().compilerAvailable())
    Engines.push_back(EngineKind::Native);
  for (EngineKind E : Engines) {
    RunConfig RC = S->Config;
    RC.Engine = E;
    Interpreter I(Compiled->Program, RC);
    S->setup(Compiled->Program, I);
    RunResult R = I.run();
    ASSERT_TRUE(R.Valid);
    EXPECT_EQ(bits(R.FinalAccums.at("resid")), bits(Resid))
        << "engine " << int(E);
    const ArrayStore &AU = I.array("U");
    for (int64_t Ii = 1; Ii <= N; ++Ii)
      for (int64_t Jj = 1; Jj <= N; ++Jj)
        ASSERT_EQ(bits(AU.at(AU.flatten({Ii, Jj}))), bits(U[Ii][Jj]))
            << Ii << "," << Jj;
  }
}

} // namespace
