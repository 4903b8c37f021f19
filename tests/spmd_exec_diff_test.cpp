//===- tests/spmd_exec_diff_test.cpp - Tree vs bytecode differential -----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// The bytecode engine (ExecPlan.h) and the native engine (compiled C
// kernels over the same plans) must be observationally identical to the
// tree-walking interpreter: bit-identical array state, identical message
// traffic and simulated times, identical accumulators — for every Figure 7
// application, and independent of the number of execution threads. Each
// application runs with its own semantics at its canonical size, and again
// the way `dist-fig7` and `dhpfc run` run it: at a non-canonical size with
// rt::Session's generic semantics, at P=8. The native legs are skipped
// (with a note) when no C compiler answers the kernel cache's probe.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"
#include "rt/Session.h"
#include "spmd/KernelCache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <vector>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;
using namespace dhpf::spmd;

namespace {

/// Everything a run can observe: final array bits, simulated machine
/// totals, accumulators, and validity.
struct Observed {
  std::map<std::string, std::vector<double>> ArrayValues;
  double SimSeconds = 0;
  uint64_t Messages = 0;
  uint64_t Bytes = 0;
  uint64_t StmtInstances = 0;
  bool Valid = true;
  std::vector<std::string> Violations;
  AccumMap FinalAccums;
  unsigned InPlaceRuntimeUpgrades = 0;
};

/// Runs \p I and records everything it can observe.
Observed observe(Interpreter &I, const hpf::Program &Source) {
  RunResult RR = I.run();
  Observed O;
  for (const auto &[Name, Decl] : Source.arrays())
    O.ArrayValues[Name] = I.array(Name).values();
  O.SimSeconds = RR.SimSeconds;
  O.Messages = RR.Messages;
  O.Bytes = RR.Bytes;
  O.StmtInstances = RR.StmtInstances;
  O.Valid = RR.Valid;
  O.Violations = RR.Violations;
  O.FinalAccums = RR.FinalAccums;
  O.InPlaceRuntimeUpgrades = RR.InPlaceRuntimeUpgrades;
  return O;
}

Observed runOnce(const CompileOutput &Compiled, const AppInstance &App,
                 const std::vector<int64_t> &ProcShape, EngineKind Engine,
                 unsigned Threads) {
  RunConfig RC;
  RC.ProcExtents = {{App.ProcArrayName, ProcShape}};
  RC.Engine = Engine;
  RC.ExecThreads = Threads;
  Interpreter I(Compiled.Program, RC);
  App.Setup(I);
  return observe(I, *App.Prog);
}

/// Bitwise comparison of doubles: engines must agree exactly, not just
/// within tolerance.
void expectBitIdentical(const std::vector<double> &A,
                        const std::vector<double> &B, const std::string &What,
                        const std::string &Config) {
  ASSERT_EQ(A.size(), B.size()) << What << " size (" << Config << ")";
  if (!A.empty() &&
      std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) != 0) {
    for (size_t I = 0; I != A.size(); ++I)
      if (std::memcmp(&A[I], &B[I], sizeof(double)) != 0) {
        ADD_FAILURE() << What << " differs at flat index " << I << ": "
                      << A[I] << " vs " << B[I] << " (" << Config << ")";
        return;
      }
  }
}

void expectSame(const Observed &Tree, const Observed &Byte,
                const std::string &Config) {
  ASSERT_EQ(Tree.ArrayValues.size(), Byte.ArrayValues.size()) << Config;
  for (const auto &[Name, Vals] : Tree.ArrayValues) {
    auto It = Byte.ArrayValues.find(Name);
    ASSERT_NE(It, Byte.ArrayValues.end()) << Name << " (" << Config << ")";
    expectBitIdentical(Vals, It->second, "array " + Name, Config);
  }
  // Simulated time is a deterministic function of the event sequence; the
  // engines must agree on every bit of it.
  expectBitIdentical({Tree.SimSeconds}, {Byte.SimSeconds},
                     "SimSeconds", Config);
  EXPECT_EQ(Tree.Messages, Byte.Messages) << Config;
  EXPECT_EQ(Tree.Bytes, Byte.Bytes) << Config;
  EXPECT_EQ(Tree.StmtInstances, Byte.StmtInstances) << Config;
  EXPECT_EQ(Tree.Valid, Byte.Valid) << Config;
  EXPECT_EQ(Tree.Violations, Byte.Violations) << Config;
  EXPECT_EQ(Tree.InPlaceRuntimeUpgrades, Byte.InPlaceRuntimeUpgrades)
      << Config;
  ASSERT_EQ(Tree.FinalAccums.size(), Byte.FinalAccums.size()) << Config;
  for (const auto &[Name, V] : Tree.FinalAccums) {
    auto It = Byte.FinalAccums.find(Name);
    ASSERT_NE(It, Byte.FinalAccums.end()) << Name << " (" << Config << ")";
    expectBitIdentical({V}, {It->second}, "accumulator " + Name, Config);
  }
}

/// Runs \p App under tree, then under bytecode and native with 1 and 4
/// execution threads; every observable must match the tree oracle exactly.
void diffApp(AppInstance App, const std::vector<int64_t> &ProcShape) {
  auto Compiled = compileProgram(*App.Prog);
  ASSERT_TRUE(Compiled) << App.Name;

  Observed Tree = runOnce(*Compiled, App, ProcShape, EngineKind::Tree, 1);
  EXPECT_TRUE(Tree.Valid) << App.Name;

  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(App.Name);
    Observed Byte =
        runOnce(*Compiled, App, ProcShape, EngineKind::Bytecode, Threads);
    expectSame(Tree, Byte,
               App.Name + " bytecode/" + std::to_string(Threads) +
                   "-thread");
  }

  if (spmd::native::KernelCache::global().compilerAvailable()) {
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(App.Name);
      Observed Nat =
          runOnce(*Compiled, App, ProcShape, EngineKind::Native, Threads);
      expectSame(Tree, Nat,
                 App.Name + " native/" + std::to_string(Threads) +
                     "-thread");
    }
  } else {
    std::cout << "[   NOTE   ] no usable C compiler; native-engine legs "
                 "skipped for "
              << App.Name << "\n";
  }

  // The serial-reference check must also pass under the bytecode engine.
  if (App.Check) {
    RunConfig RC;
    RC.ProcExtents = {{App.ProcArrayName, ProcShape}};
    RC.Engine = EngineKind::Bytecode;
    RC.ExecThreads = 4;
    Interpreter I(Compiled->Program, RC);
    App.Setup(I);
    RunResult RR = I.run();
    EXPECT_TRUE(RR.Valid) << App.Name;
    std::string Err;
    EXPECT_TRUE(App.Check(I, Err)) << App.Name << ": " << Err;
  }
}

/// Runs \p App, at a non-canonical size, the way `dist-fig7` and `dhpfc
/// run` do: resolved through rt::Session at P=8, seeded and given the
/// generic semantics by Session::setup. Bytecode and native at 1, 3 and 4
/// execution threads must match the tree oracle exactly.
void diffSession(AppInstance App) {
  auto Compiled = compileProgram(*App.Prog);
  ASSERT_TRUE(Compiled) << App.Name;
  rt::SessionOptions SO;
  SO.NumProcs = 8;
  std::string Err;
  std::optional<rt::Session> S =
      rt::resolveSession(Compiled->Program, SO, Err);
  ASSERT_TRUE(S) << App.Name << ": " << Err;
  ASSERT_FALSE(S->Canonical) << App.Name;
  auto Run = [&](EngineKind Engine, unsigned Threads) {
    RunConfig RC = S->Config;
    RC.Engine = Engine;
    RC.ExecThreads = Threads;
    Interpreter I(Compiled->Program, RC);
    S->setup(Compiled->Program, I);
    return observe(I, *App.Prog);
  };

  Observed Tree = Run(EngineKind::Tree, 1);
  EXPECT_TRUE(Tree.Valid) << App.Name;
  std::vector<std::pair<EngineKind, const char *>> Engines = {
      {EngineKind::Bytecode, "bytecode"}};
  if (spmd::native::KernelCache::global().compilerAvailable())
    Engines.push_back({EngineKind::Native, "native"});
  else
    std::cout << "[   NOTE   ] no usable C compiler; native-engine legs "
                 "skipped for "
              << App.Name << "\n";
  for (const auto &[Engine, Label] : Engines)
    for (unsigned Threads : {1u, 3u, 4u})
      expectSame(Tree, Run(Engine, Threads),
                 App.Name + " generic P=8 " + Label + "/" +
                     std::to_string(Threads) + "-thread");
}

TEST(SpmdExecDiff, Jacobi) { diffApp(makeJacobi(16, 3), {2, 2}); }

TEST(SpmdExecDiff, Tomcatv) { diffApp(makeTomcatv(18, 3), {4}); }

TEST(SpmdExecDiff, Erlebacher) { diffApp(makeErlebacher(10, 2), {4}); }

TEST(SpmdExecDiff, Gauss) { diffApp(makeGauss(12), {2, 2}); }

// A single-processor run exercises the no-communication fast paths.
TEST(SpmdExecDiff, JacobiOneProc) { diffApp(makeJacobi(12, 2), {1, 1}); }

// An odd processor count exercises ragged block boundaries.
TEST(SpmdExecDiff, GaussRagged) { diffApp(makeGauss(12), {2, 3}); }

// The Figure 7 programs as `dist-fig7` runs them, shrunk: generic
// semantics, non-canonical sizes, eight ranks.
TEST(SpmdExecDiff, JacobiGenericP8) { diffSession(makeJacobi(20, 2)); }

TEST(SpmdExecDiff, TomcatvGenericP8) { diffSession(makeTomcatv(22, 2)); }

TEST(SpmdExecDiff, ErlebacherGenericP8) {
  diffSession(makeErlebacher(16, 2));
}

TEST(SpmdExecDiff, GaussGenericP8) { diffSession(makeGauss(16)); }

} // namespace
