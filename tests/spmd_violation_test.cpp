//===- tests/spmd_violation_test.cpp - Validity-check coverage -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// The interpreter is also the verifier of the communication analysis: a
// processor may only read elements it owns or has received, and every
// message must match the receiver's expectation sets. These tests compile a
// correct stencil, then *break* the compiled program — strip receives,
// strip sends, deliver twice, inflate the receiver's expectation — and
// check that each violation path fires, with identical diagnostics from the
// tree and bytecode engines.
//
// Broken programs may read elements whose values depend on execution order,
// so these runs pin ExecThreads = 1 (the determinism contract only covers
// valid programs at higher thread counts; see DESIGN.md Section 7).
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "hpf/HpfParser.h"
#include "spmd/Interp.h"
#include "spmd/KernelCache.h"
#include "spmd/Layout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::hpf;
using namespace dhpf::spmd;

namespace {

/// 1-D two-array stencil on 4 processors: A(i) = B(i-1) + B(i+1).
Program stencilProgram() {
  Program P("stencil1d");
  P.addProcs("P", {Program::procDim(4)});
  P.addTemplate("T", {range(1, 16)});
  P.addArray("A", {range(1, 16)});
  P.addArray("B", {range(1, 16)});
  P.addAlign({"A", "T", {alignDim(0)}});
  P.addAlign({"B", "T", {alignDim(0)}});
  P.addDistribute({"T", "P", {distBlock()}});
  Procedure &Proc = P.addProcedure("main");
  ComputeNest N;
  N.Name = "stencil";
  N.Loops = {loop("i", 2, 15)};
  N.Stmts = {parseStatement("A(i) = B(i-1) + B(i+1)")};
  P.addNest(Proc, N);
  return P;
}

RunResult runBroken(const SpmdProgram &SP, EngineKind Engine) {
  RunConfig RC;
  RC.ProcExtents = {{"P", {4}}};
  RC.Engine = Engine;
  RC.ExecThreads = 1; // broken programs are only deterministic sequentially
  Interpreter I(SP, RC);
  I.initArray("B", [](const std::vector<int64_t> &Idx) {
    return double(Idx[0] * Idx[0]);
  });
  return I.run();
}

bool anyContains(const std::vector<std::string> &Msgs,
                 const std::string &Needle) {
  for (const std::string &M : Msgs)
    if (M.find(Needle) != std::string::npos)
      return true;
  return false;
}

/// Applies \p Mutate to a freshly compiled stencil, runs it under both
/// engines, asserts identical diagnostics, and returns the violations.
std::vector<std::string>
runMutated(const std::function<void(SpmdProgram &)> &Mutate) {
  Program P = stencilProgram();
  auto Compiled = compileProgram(P);
  EXPECT_TRUE(Compiled);
  Mutate(Compiled->Program);

  RunResult Tree = runBroken(Compiled->Program, EngineKind::Tree);
  RunResult Byte = runBroken(Compiled->Program, EngineKind::Bytecode);
  EXPECT_FALSE(Tree.Valid);
  EXPECT_FALSE(Byte.Valid);
  EXPECT_EQ(Tree.Violations, Byte.Violations);
  EXPECT_EQ(Tree.Messages, Byte.Messages);
  EXPECT_EQ(Tree.Bytes, Byte.Bytes);
  EXPECT_EQ(Tree.StmtInstances, Byte.StmtInstances);
  return Tree.Violations;
}

/// Removes every node of kind \p K from the program tree.
void stripNodes(SpmdNode &N, SpmdNode::Kind K) {
  auto &C = N.Children;
  C.erase(std::remove_if(C.begin(), C.end(),
                         [K](const std::unique_ptr<SpmdNode> &Ch) {
                           return Ch->K == K;
                         }),
          C.end());
  for (auto &Ch : C)
    stripNodes(*Ch, K);
}

/// Duplicates every node of kind \p K in place (the copy runs right after
/// the original).
void duplicateNodes(SpmdNode &N, SpmdNode::Kind K) {
  auto &C = N.Children;
  for (size_t I = 0; I < C.size(); ++I) {
    if (C[I]->K == K) {
      auto Copy = SpmdNode::make(K);
      Copy->EventId = C[I]->EventId;
      C.insert(C.begin() + I + 1, std::move(Copy));
      ++I; // skip the copy
    } else {
      duplicateNodes(*C[I], K);
    }
  }
}

/// Extends the upper bound of every innermost loop (loops whose body holds
/// no further loop) by one iteration.
void widenInnermostLoops(cg::AstNode &N) {
  bool HasLoopChild = false;
  for (const cg::AstPtr &Ch : N.Children) {
    widenInnermostLoops(*Ch);
    std::function<bool(const cg::AstNode &)> containsLoop =
        [&](const cg::AstNode &M) {
          if (M.K == cg::AstNode::Kind::Loop)
            return true;
          for (const cg::AstPtr &C : M.Children)
            if (containsLoop(*C))
              return true;
          return false;
        };
    if (containsLoop(*Ch))
      HasLoopChild = true;
  }
  if (N.K == cg::AstNode::Kind::Loop && !HasLoopChild)
    N.UB = cg::Expr::add(N.UB, cg::Expr::constant(1));
}

// Reads of non-local elements with the receive removed: the validity check
// must flag every such read, and the undelivered sends must be reported.
TEST(SpmdViolation, MissingRecvBeforeNonLocalRead) {
  std::vector<std::string> V = runMutated([](SpmdProgram &SP) {
    stripNodes(*SP.Root, SpmdNode::Kind::Recv);
  });
  EXPECT_TRUE(anyContains(V, "read unreceived element")) << testing::PrintToString(V);
  EXPECT_TRUE(anyContains(V, "unconsumed messages remain"))
      << testing::PrintToString(V);
}

// A read of an element that lies inside the reader's storage box but was
// never received: every engine reports it with the same text, naming the
// element by its flat index in the whole array. Rank 1 owns B(5:8) and
// reads B(4) (flat 3) and B(9) (flat 8), both in its box.
TEST(SpmdViolation, UnreceivedElementInsideTheBox) {
  Program P = stencilProgram();
  auto Compiled = compileProgram(P);
  ASSERT_TRUE(Compiled);
  SpmdProgram &SP = Compiled->Program;
  stripNodes(*SP.Root, SpmdNode::Kind::Recv);
  RunConfig RC;
  RC.ProcExtents = {{"P", {4}}};
  StorageLayout S = resolveStorage(SP, resolveLayout(SP, RC));
  ASSERT_EQ(S.Arrays[1].Name, "B");
  EXPECT_LE(S.BoxLo[1][1][0], 4);
  EXPECT_GE(S.BoxLo[1][1][0] + S.BoxExtent[1][0] - 1, 9);

  std::vector<EngineKind> Engines = {EngineKind::Tree, EngineKind::Bytecode};
  if (native::KernelCache::global().compilerAvailable())
    Engines.push_back(EngineKind::Native);
  RunResult Tree = runBroken(SP, EngineKind::Tree);
  for (EngineKind E : Engines) {
    RunResult R = runBroken(SP, E);
    EXPECT_FALSE(R.Valid);
    EXPECT_TRUE(anyContains(R.Violations,
                            "proc 1 read unreceived element 3 of B"))
        << testing::PrintToString(R.Violations);
    EXPECT_TRUE(anyContains(R.Violations,
                            "proc 1 read unreceived element 8 of B"))
        << testing::PrintToString(R.Violations);
    EXPECT_EQ(R.Violations, Tree.Violations);
  }
}

// Receives with the matching send removed: every expectation is an
// un-sent message.
TEST(SpmdViolation, MissingSend) {
  std::vector<std::string> V = runMutated([](SpmdProgram &SP) {
    stripNodes(*SP.Root, SpmdNode::Kind::Send);
  });
  EXPECT_TRUE(anyContains(V, "that was never sent"))
      << testing::PrintToString(V);
}

// Double delivery: each message sent twice, consumed once — the duplicate
// payloads must be detected as unconsumed.
TEST(SpmdViolation, DoubleDelivery) {
  std::vector<std::string> V = runMutated([](SpmdProgram &SP) {
    duplicateNodes(*SP.Root, SpmdNode::Kind::Send);
  });
  EXPECT_TRUE(anyContains(V, "unconsumed messages remain"))
      << testing::PrintToString(V);
}

// Unexpected message contents: the receiver's expectation loops are widened
// by one element, so every arriving message is smaller than expected and
// misses an element.
TEST(SpmdViolation, UnexpectedMessageContents) {
  std::vector<std::string> V = runMutated([](SpmdProgram &SP) {
    for (CommEvent &Ev : SP.Events)
      if (Ev.RecvLoops)
        widenInnermostLoops(*Ev.RecvLoops);
  });
  EXPECT_TRUE(anyContains(V, "message size mismatch"))
      << testing::PrintToString(V);
  EXPECT_TRUE(anyContains(V, "expected element missing from message"))
      << testing::PrintToString(V);
}

// The unbroken program stays clean under both engines (control).
TEST(SpmdViolation, IntactProgramIsValid) {
  Program P = stencilProgram();
  auto Compiled = compileProgram(P);
  ASSERT_TRUE(Compiled);
  for (EngineKind E : {EngineKind::Tree, EngineKind::Bytecode}) {
    RunResult RR = runBroken(Compiled->Program, E);
    EXPECT_TRUE(RR.Valid) << testing::PrintToString(RR.Violations);
  }
}

} // namespace
