//===- tests/exec_layout_test.cpp - Ranks write disjoint cache lines -----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// The in-process plan executor runs ranks on worker threads. Everything a
// rank writes inside a parallel compute nest on every statement instance
// — its simulated clock, its statement counters, its native kernel
// context, its read buffer and value stack, its loop registers (the Env
// block) and its accumulators — must sit on cache lines no other rank
// writes, or each write bounces a line between cores. A friend probe collects those byte ranges per rank; the test
// asserts that no 64-byte line holds bytes of two ranks, for P in
// {2, 3, 4, 8} under the bytecode and native engines. The layout must not depend on which thread
// first touched what, so each configuration also runs on one thread,
// where every allocation comes from the same thread in rank order.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"
#include "spmd/ExecPlan.h"
#include "spmd/KernelCache.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;
using namespace dhpf::spmd;

namespace dhpf {
namespace spmd {

/// One byte range a rank writes, [Begin, End).
struct WriteRange {
  uintptr_t Begin = 0, End = 0;
  std::string What;
};

/// Friend of Interpreter and PlanExecutor: reads where the executor keeps
/// each rank's per-statement state.
struct RankLayoutProbe {
  static const PlanExecutor *executor(const Interpreter &I) {
    return I.Exec.get();
  }
  static bool native(const Interpreter &I) {
    return I.Exec->Native != nullptr;
  }

  static std::vector<WriteRange> writes(Interpreter &I, unsigned P) {
    const PlanExecutor::Scratch &S = I.Exec->PerProc[P];
    std::vector<WriteRange> Out;
    auto Add = [&](const void *B, size_t Bytes, const std::string &What) {
      uintptr_t A = reinterpret_cast<uintptr_t>(B);
      Out.push_back({A, A + Bytes, What});
    };
    Add(&I.Mach.clockRef(P), sizeof(double), "clock");
    Add(&S, sizeof S, "record (vector headers, counters)");
    Add(&S.Stmts, sizeof S.Stmts, "statement counter");
    Add(&S.SinceProgress, sizeof S.SinceProgress, "progress counter");
    Add(&S.Ctx, sizeof S.Ctx, "kernel context");
    Add(S.Reads.data(), S.Reads.size() * sizeof(double), "read buffer");
    Add(S.Values.data(), S.Values.size() * sizeof(double), "value stack");
    Add(S.Acc.data(), S.Acc.size() * sizeof(double), "accumulators");
    Add(S.Regs.data(), S.Regs.size() * sizeof(int64_t), "Env block");
    Add(S.Stack.data(), S.Stack.size() * sizeof(int64_t), "bytecode stack");
    if (I.Exec->Native) {
      // Where the compiled kernels write, as their context says.
      Add(S.Ctx.Clock, sizeof(double), "kernel clock");
      Add(S.Ctx.Stmts, sizeof(uint64_t), "kernel statement counter");
      Add(S.Ctx.Accum, S.Acc.size() * sizeof(double), "kernel accumulators");
    }
    return Out;
  }
};

} // namespace spmd
} // namespace dhpf

namespace {

constexpr uintptr_t Line = 64;

void checkLayout(const AppInstance &App, const CompileOutput &Compiled,
                 EngineKind Engine, const std::vector<int64_t> &Shape,
                 unsigned Threads) {
  unsigned NP = 1;
  for (int64_t E : Shape)
    NP *= static_cast<unsigned>(E);
  SCOPED_TRACE(std::string(Engine == EngineKind::Native ? "native"
                                                         : "bytecode") +
               " P=" + std::to_string(NP) + " threads=" +
               std::to_string(Threads));

  RunConfig RC;
  RC.ProcExtents = {{App.ProcArrayName, Shape}};
  RC.Engine = Engine;
  RC.ExecThreads = Threads;
  Interpreter I(Compiled.Program, RC);
  I.seedArrays();
  ASSERT_NE(RankLayoutProbe::executor(I), nullptr);
  if (Engine == EngineKind::Native) {
    ASSERT_TRUE(RankLayoutProbe::native(I));
  }

  // jacobi folds every sweep instance into its resid accumulator.
  RunResult R = I.run();
  EXPECT_GT(R.StmtInstances, 0u);

  std::vector<std::vector<WriteRange>> ByRank(NP);
  for (unsigned P = 0; P != NP; ++P)
    ByRank[P] = RankLayoutProbe::writes(I, P);

  // No 64-byte line holds bytes of two ranks.
  std::map<uintptr_t, std::pair<unsigned, std::string>> LineOwner;
  for (unsigned P = 0; P != NP; ++P)
    for (const WriteRange &W : ByRank[P]) {
      ASSERT_LT(W.Begin, W.End) << "rank " << P << "'s " << W.What
                                << " is empty";
      for (uintptr_t L = W.Begin / Line; L <= (W.End - 1) / Line; ++L) {
        auto [It, New] = LineOwner.try_emplace(L, P, W.What);
        if (!New && It->second.first != P)
          ADD_FAILURE() << "rank " << P << "'s " << W.What << " shares a "
                        << "cache line with rank " << It->second.first << "'s "
                        << It->second.second;
      }
    }
}

const std::vector<std::vector<int64_t>> Shapes = {
    {1, 2}, {1, 3}, {2, 2}, {2, 4}};

void checkShapes(EngineKind Engine) {
  AppInstance App = makeJacobi(16, 2);
  auto Compiled = compileProgram(*App.Prog);
  ASSERT_TRUE(Compiled);
  for (const std::vector<int64_t> &S : Shapes) {
    checkLayout(App, *Compiled, Engine, S, 1);
    checkLayout(App, *Compiled, Engine, S,
                static_cast<unsigned>(S[0] * S[1]));
  }
}

TEST(RankLayout, BytecodeRanksWriteDisjointCacheLines) {
  checkShapes(EngineKind::Bytecode);
}

TEST(RankLayout, NativeRanksWriteDisjointCacheLines) {
  if (!native::KernelCache::global().compilerAvailable())
    GTEST_SKIP() << "no usable C compiler";
  checkShapes(EngineKind::Native);
}

} // namespace
