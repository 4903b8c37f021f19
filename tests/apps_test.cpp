//===- tests/apps_test.cpp - Benchmark applications end to end -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Compiles each benchmark application and executes it on several processor
// configurations, validating the numerical results against the serial
// references and the interpreter's communication checks. Also checks the
// shape of the compiled communication: send loop nests never outnumber
// receive loop nests.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "apps/Registry.h"
#include "core/Compiler.h"

#include <gtest/gtest.h>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;
using namespace dhpf::spmd;

namespace {

void runApp(AppInstance App,
            const std::vector<std::vector<int64_t>> &ProcConfigs,
            CompilerOptions Opts = {}) {
  auto Compiled = compileProgram(*App.Prog, Opts);
  for (const std::vector<int64_t> &Shape : ProcConfigs) {
    RunConfig RC;
    RC.ProcExtents = {{App.ProcArrayName, Shape}};
    Interpreter I(Compiled->Program, RC);
    App.Setup(I);
    RunResult RR = I.run();
    std::string Cfg;
    for (int64_t S : Shape)
      Cfg += std::to_string(S) + "x";
    for (const std::string &V : RR.Violations)
      ADD_FAILURE() << App.Name << " [" << Cfg << "]: " << V;
    EXPECT_TRUE(RR.Valid) << App.Name << " " << Cfg;
    if (App.Check) {
      std::string Err;
      EXPECT_TRUE(App.Check(I, Err)) << App.Name << " [" << Cfg << "]: "
                                     << Err;
    }
  }
}

TEST(Apps, JacobiSmall) {
  runApp(makeJacobi(16, 3), {{2, 1}, {2, 2}, {2, 4}});
}

TEST(Apps, JacobiNoOptimizations) {
  CompilerOptions Opts;
  Opts.LoopSplitting = false;
  Opts.Coalescing = false;
  Opts.InPlaceAnalysis = false;
  runApp(makeJacobi(16, 2), {{2, 2}}, Opts);
}

TEST(Apps, TomcatvSmall) {
  runApp(makeTomcatv(18, 3), {{1}, {2}, {4}});
}

TEST(Apps, ErlebacherSmall) {
  runApp(makeErlebacher(10, 2), {{1}, {2}, {4}});
}

TEST(Apps, GaussSmall) {
  runApp(makeGauss(12), {{1, 1}, {2, 2}, {2, 3}});
}

TEST(Apps, SpLikeSmallRuns) {
  // A handful of procedures end-to-end: validity only (no serial check).
  runApp(makeSpLike(5, /*SymbolicProcs=*/true, /*N=*/8), {{2, 2}});
}

TEST(Apps, SpLikeFixedCompiles) {
  AppInstance App = makeSpLike(10, /*SymbolicProcs=*/false, /*N=*/8);
  auto Compiled = compileProgram(*App.Prog);
  EXPECT_GT(Compiled->NumCommEvents, 0u);
  EXPECT_GT(Compiled->Timers.seconds(phase::Total), 0.0);
}

/// Counts the leaves labelled \p Label under \p N. Communication sets get
/// one loop nest per conjunct, so this is the number of nests.
unsigned countLeaves(const cg::AstNode *N, const std::string &Label) {
  if (!N)
    return 0;
  if (N->K == cg::AstNode::Kind::Leaf)
    return N->Label == Label;
  unsigned C = 0;
  for (const cg::AstPtr &Child : N->Children)
    C += countLeaves(Child.get(), Label);
  return C;
}

TEST(Apps, SendNestsNoMoreThanRecvNests) {
  // Figure 3's send and receive maps are duals (m sends q exactly what q
  // receives from m), so a send map derived from the receive side never
  // needs more loop nests than the receive map.
  std::vector<AppInstance> Subjects;
  for (const RegistryEntry &E : appRegistry())
    Subjects.push_back(E.MakeCanonical());
  // Both Table 1 SP subjects. Four procedures cover every nest kind that
  // communicates (the fifth kind is a local sweep).
  Subjects.push_back(makeSpLike(4, /*SymbolicProcs=*/true, /*N=*/8));
  Subjects.push_back(makeSpLike(4, /*SymbolicProcs=*/false, /*N=*/8));
  for (const AppInstance &App : Subjects) {
    auto Compiled = compileProgram(*App.Prog);
    const std::vector<CommEvent> &Events = Compiled->Program.Events;
    EXPECT_FALSE(Events.empty()) << App.Name;
    for (const CommEvent &Ev : Events) {
      unsigned Send = countLeaves(Ev.SendLoops.get(), "pack");
      unsigned Recv = countLeaves(Ev.RecvLoops.get(), "unpack");
      EXPECT_GT(Recv, 0u) << App.Name << " event " << Ev.Id;
      EXPECT_LE(Send, Recv) << App.Name << " event " << Ev.Id << " ("
                            << Ev.Array << ")";
    }
  }
}

} // namespace
