//===- tests/loop_order_test.cpp - Dependence-checked loop order ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Compute nests run in storage order and union split sections as exact
// disjoint pieces wherever the nest's dependence relation admits it
// (core/Dependence.h), and a Figure 4(b) split is refused where it would
// run a dependence backwards. The compile tests pin the orders the
// Figure 7 programs get, the orders the dependences refuse, the split the
// `skew` program must not get, and thread-count independence. The run
// tests are differential: every shipped program (examples/*.hpf and
// examples/regress/*.hpf) must give its P=1 arrays bit for bit at
// P = 2, 3, 4 and 8 under the tree and native engines, and reordering on
// and off must agree on arrays and every traffic counter on every engine.
// The native legs are skipped (with a note) when no C compiler answers
// the kernel cache's probe.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/Dependence.h"
#include "hpf/HpfParser.h"
#include "rt/Session.h"
#include "spmd/KernelCache.h"
#include "spmd/Serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>

using namespace dhpf;
using namespace dhpf::spmd;

namespace {

std::string examplePath(const std::string &Rel) {
  return std::string(DHPF_EXAMPLES_DIR) + "/" + Rel;
}

/// Every shipped program: examples/*.hpf and examples/regress/*.hpf.
std::vector<std::string> shippedPrograms() {
  std::vector<std::string> Out;
  for (const char *Dir : {"", "regress"})
    for (const auto &E :
         std::filesystem::directory_iterator(examplePath(Dir)))
      if (E.path().extension() == ".hpf")
        Out.push_back(E.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::unique_ptr<hpf::Program> load(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::unique_ptr<hpf::Program> P = hpf::parseHpfProgram(SS.str());
  EXPECT_TRUE(P) << Path;
  return P;
}

std::unique_ptr<core::CompileOutput> compile(const hpf::Program &P,
                                             bool Reorder = true,
                                             unsigned Threads = 1) {
  core::CompilerOptions O;
  O.ReorderLoops = Reorder;
  O.AnalysisThreads = Threads;
  return core::compileProgram(P, O);
}

/// Loop variables of a compute node's AST from outside in, along its
/// first path, without the virtual-processor loops.
std::string loopOrder(const cg::AstNode &N) {
  std::string Out;
  for (const cg::AstNode *P = &N; P;
       P = P->Children.empty() ? nullptr : P->Children.front().get())
    if (P->K == cg::AstNode::Kind::Loop && P->VarName.rfind("mv", 0) != 0)
      Out += (Out.empty() ? "" : ",") + P->VarName;
  return Out;
}

/// Compute node name -> loop order, for every compute node of \p SP.
std::map<std::string, std::string> orders(const SpmdProgram &SP) {
  std::map<std::string, std::string> Out;
  std::function<void(const SpmdNode &)> Walk = [&](const SpmdNode &N) {
    if (N.K == SpmdNode::Kind::Compute)
      Out[N.NestName] = loopOrder(*N.Loops);
    for (const auto &C : N.Children)
      Walk(*C);
  };
  Walk(*SP.Root);
  return Out;
}

//===----------------------------------------------------------------------===//
// Compile tests
//===----------------------------------------------------------------------===//

TEST(LoopOrderCompile, Figure7ProgramsRunInStorageOrder) {
  struct Want {
    const char *File;
    const char *Source;
    std::map<std::string, std::string> Orders;
  };
  const Want Wants[] = {
      {"jacobi.hpf",
       "i,j",
       {{"sweep/local", "j,i"}, {"sweep/nonlocal", "j,i"}, {"copyback", "j,i"}}},
      {"tomcatv.hpf",
       "i,j",
       {{"resid/local", "j,i"}, {"resid/nonlocal", "j,i"}, {"update", "j,i"}}},
      // Under (CYCLIC, CYCLIC) every iteration reads a non-local element.
      {"gauss.hpf", "i,j", {{"update/nonlocal", "j,i"}}},
      // ztri's k is its communication level (vectorize 1): it stays
      // outermost and carries the recurrence.
      {"erlebacher.hpf",
       "k,i,j",
       {{"xysweep", "k,j,i"},
        {"zsweep/local", "k,j,i"},
        {"zsweep/nonlocal", "k,j,i"},
        {"ztri", "k,j,i"}}},
  };
  for (const Want &W : Wants) {
    SCOPED_TRACE(W.File);
    std::unique_ptr<hpf::Program> P = load(examplePath(W.File));
    ASSERT_TRUE(P);
    std::unique_ptr<core::CompileOutput> C = compile(*P);
    ASSERT_TRUE(C);
    EXPECT_EQ(C->NumOrderRefused, 0u);
    EXPECT_EQ(C->NumSplitRefused, 0u);
    std::map<std::string, std::string> Got = orders(C->Program);
    EXPECT_EQ(Got.size(), W.Orders.size());
    for (const auto &[Node, Order] : W.Orders)
      EXPECT_EQ(Got[Node], Order) << Node;
    // Off: every node keeps the source order.
    std::unique_ptr<core::CompileOutput> Off = compile(*P, false);
    ASSERT_TRUE(Off);
    EXPECT_EQ(Off->NumPermutedNests, 0u);
    EXPECT_EQ(Off->NumExactSections, 0u);
    for (const auto &[Node, Order] : orders(Off->Program))
      EXPECT_EQ(Order, W.Source) << Node;
  }
}

TEST(LoopOrderCompile, NoswapKeepsItsOrder) {
  std::unique_ptr<hpf::Program> P = load(examplePath("regress/noswap.hpf"));
  ASSERT_TRUE(P);
  std::unique_ptr<core::CompileOutput> C = compile(*P);
  ASSERT_TRUE(C);
  EXPECT_EQ(C->NumOrderRefused, 1u);
  EXPECT_EQ(C->NumPermutedNests, 0u);
  EXPECT_EQ(orders(C->Program)["noswap"], "k,i,j");
}

TEST(LoopOrderCompile, SkewSplitIsRefused) {
  std::unique_ptr<hpf::Program> P = load(examplePath("regress/skew.hpf"));
  ASSERT_TRUE(P);
  const hpf::ComputeNest &Nest = P->procedures()[0].Phases[0].Nest;
  Relation D = core::dependenceRelation(hpf::MapBuilder(*P), Nest);
  // The read A(i-1,j+1) at (j,i) = (5,5) names A(4,6), which (6,4)
  // writes later; nothing runs before its source.
  EXPECT_TRUE(D.contains({6, 4}, {}, {5, 5})) << D.toString();
  EXPECT_FALSE(D.contains({5, 5}, {}, {6, 4})) << D.toString();
  for (bool Reorder : {true, false}) {
    std::unique_ptr<core::CompileOutput> C = compile(*P, Reorder);
    ASSERT_TRUE(C);
    EXPECT_EQ(C->NumSplitRefused, 1u);
    EXPECT_EQ(C->NumSplitNests, 0u);
    EXPECT_EQ(orders(C->Program).count("skew"), 1u);
  }
}

TEST(LoopOrderCompile, StorageOrderAndItsFallback) {
  std::unique_ptr<hpf::Program> P = load(examplePath("regress/noswap.hpf"));
  ASSERT_TRUE(P);
  const hpf::ComputeNest &Nest = P->procedures()[0].Phases[0].Nest;
  std::vector<unsigned> Wanted = core::storageOrder(Nest, 0);
  EXPECT_EQ(Wanted, (std::vector<unsigned>{0, 2, 1}));
  EXPECT_EQ(core::innermostOnly({2, 0, 1}), (std::vector<unsigned>{0, 2, 1}));
  // A vectorize prefix never moves.
  EXPECT_EQ(core::storageOrder(Nest, 3), (std::vector<unsigned>{0, 1, 2}));
  Relation D = core::dependenceRelation(hpf::MapBuilder(*P), Nest);
  EXPECT_FALSE(core::orderKeepsDependences(D, Wanted));
  EXPECT_TRUE(core::orderKeepsDependences(D, {0, 1, 2}));
  EXPECT_TRUE(core::orderKeepsDependences(D, {1, 0, 2}));
}

TEST(LoopOrderCompile, DisjointPiecesPartitionTheSet) {
  Relation S = parseRelation("[N] -> { [i,j] : 1 <= i <= N && 1 <= j <= 4 "
                             "or 3 <= i <= 9 && 2 <= j <= 8 }");
  std::vector<Relation> Pcs = core::disjointPieces(S);
  ASSERT_GE(Pcs.size(), 2u);
  Relation All = Pcs[0];
  for (size_t A = 0; A != Pcs.size(); ++A) {
    EXPECT_EQ(std::as_const(Pcs[A]).conjuncts().size(), 1u);
    for (size_t B = A + 1; B != Pcs.size(); ++B)
      EXPECT_TRUE(Pcs[A].intersect(Pcs[B]).isEmpty()) << A << " " << B;
    if (A)
      All = All.unionWith(Pcs[A]);
  }
  EXPECT_TRUE(All.isEqualTo(S));
  // Permuting dimensions is a relabelling: (i,j) in S iff (j,i) in S'.
  Relation T = core::permuteDims(S, {1, 0});
  EXPECT_TRUE(S.contains({2, 8}, {10}) == T.contains({8, 2}, {10}));
  EXPECT_TRUE(T.contains({4, 10}, {10}));
  EXPECT_FALSE(T.contains({10, 4}, {10}));
}

TEST(LoopOrderCompile, ThreadCountDoesNotChangeTheProgram) {
  for (const std::string &Path : shippedPrograms()) {
    SCOPED_TRACE(Path);
    std::unique_ptr<hpf::Program> P = load(Path);
    ASSERT_TRUE(P);
    std::unique_ptr<core::CompileOutput> One = compile(*P, true, 1);
    std::unique_ptr<core::CompileOutput> Four = compile(*P, true, 4);
    ASSERT_TRUE(One && Four);
    EXPECT_EQ(serializeSpmdProgram(One->Program),
              serializeSpmdProgram(Four->Program));
    EXPECT_EQ(One->NumPermutedNests, Four->NumPermutedNests);
    EXPECT_EQ(One->NumExactPieces, Four->NumExactPieces);
  }
}

//===----------------------------------------------------------------------===//
// Differential runs
//===----------------------------------------------------------------------===//

struct Observed {
  std::map<std::string, std::vector<double>> Arrays;
  RunResult R;
};

Observed runAt(const hpf::Program &Src, const core::CompileOutput &C,
               int64_t NP,
               EngineKind E) {
  rt::SessionOptions SO;
  SO.NumProcs = NP;
  std::string Err;
  std::optional<rt::Session> S = rt::resolveSession(C.Program, SO, Err);
  EXPECT_TRUE(S) << Err;
  Observed O;
  if (!S)
    return O;
  RunConfig RC = S->Config;
  RC.Engine = E;
  RC.ExecThreads = 1;
  Interpreter I(C.Program, RC);
  S->setup(C.Program, I);
  O.R = I.run();
  EXPECT_TRUE(O.R.Valid) << (O.R.Violations.empty() ? ""
                                                    : O.R.Violations[0]);
  for (const auto &[Name, Decl] : Src.arrays())
    O.Arrays[Name] = I.array(Name).values();
  return O;
}

/// The number of elements that differ bitwise, per array.
std::string diffArrays(const Observed &A, const Observed &B) {
  std::string Out;
  for (const auto &[Name, V] : A.Arrays) {
    const std::vector<double> &W = B.Arrays.at(Name);
    if (V.size() != W.size()) {
      Out += Name + ": sizes differ; ";
      continue;
    }
    size_t N = 0;
    for (size_t K = 0; K != V.size(); ++K)
      N += std::memcmp(&V[K], &W[K], sizeof(double)) != 0;
    if (N)
      Out += Name + ": " + std::to_string(N) + " of " +
             std::to_string(V.size()) + " elements differ; ";
  }
  return Out;
}

std::vector<std::pair<EngineKind, const char *>> engines(bool Bytecode) {
  std::vector<std::pair<EngineKind, const char *>> Out = {
      {EngineKind::Tree, "tree"}};
  if (Bytecode)
    Out.push_back({EngineKind::Bytecode, "bytecode"});
  if (native::KernelCache::global().compilerAvailable())
    Out.push_back({EngineKind::Native, "native"});
  else
    std::cout << "[   NOTE   ] no usable C compiler; native-engine legs "
                 "skipped\n";
  return Out;
}

TEST(LoopOrderRun, ProcessorCountDoesNotChangeArrays) {
  for (const std::string &Path : shippedPrograms()) {
    std::unique_ptr<hpf::Program> P = load(Path);
    ASSERT_TRUE(P);
    std::unique_ptr<core::CompileOutput> C = compile(*P);
    ASSERT_TRUE(C);
    Observed Serial = runAt(*P, *C, 1, EngineKind::Tree);
    for (const auto &[E, Label] : engines(false))
      for (int64_t NP : {2, 3, 4, 8})
        EXPECT_EQ(diffArrays(Serial, runAt(*P, *C, NP, E)), "")
            << Path << " " << Label << " P=" << NP;
  }
}

TEST(LoopOrderRun, ReorderingChangesNoResult) {
  for (const std::string &Path : shippedPrograms()) {
    std::unique_ptr<hpf::Program> P = load(Path);
    ASSERT_TRUE(P);
    std::unique_ptr<core::CompileOutput> On = compile(*P, true);
    std::unique_ptr<core::CompileOutput> Off = compile(*P, false);
    ASSERT_TRUE(On && Off);
    for (const auto &[E, Label] : engines(true)) {
      Observed A = runAt(*P, *On, 4, E), B = runAt(*P, *Off, 4, E);
      std::string Where = Path + " " + Label;
      EXPECT_EQ(diffArrays(A, B), "") << Where;
      EXPECT_EQ(A.R.Messages, B.R.Messages) << Where;
      EXPECT_EQ(A.R.Bytes, B.R.Bytes) << Where;
      EXPECT_EQ(A.R.SpanCopies, B.R.SpanCopies) << Where;
      EXPECT_EQ(A.R.PackedCopies, B.R.PackedCopies) << Where;
      EXPECT_EQ(A.R.StmtInstances, B.R.StmtInstances) << Where;
    }
  }
}

/// jacobi's non-local section is four strips: scanned as exact pieces it
/// runs exactly the statement instances of the unsplit nest.
TEST(LoopOrderRun, ExactPiecesRunEveryInstance) {
  std::unique_ptr<hpf::Program> P = load(examplePath("jacobi.hpf"));
  ASSERT_TRUE(P);
  std::unique_ptr<core::CompileOutput> Pieces = compile(*P);
  ASSERT_TRUE(Pieces);
  EXPECT_EQ(Pieces->NumExactSections, 1u);
  EXPECT_EQ(Pieces->NumExactPieces, 4u);
  core::CompilerOptions O;
  O.LoopSplitting = false;
  std::unique_ptr<core::CompileOutput> Unsplit =
      core::compileProgram(*P, O);
  ASSERT_TRUE(Unsplit);
  for (const auto &[E, Label] : engines(true)) {
    Observed A = runAt(*P, *Pieces, 4, E), B = runAt(*P, *Unsplit, 4, E);
    EXPECT_EQ(A.R.StmtInstances, B.R.StmtInstances) << Label;
    EXPECT_EQ(diffArrays(A, B), "") << Label;
  }
}

} // namespace
