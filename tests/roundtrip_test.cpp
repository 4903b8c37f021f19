//===- tests/roundtrip_test.cpp - Serialization round-trip properties ----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The round-trip properties behind the dhpfc file pipeline, over the four
/// Figure 7 benchmarks:
///
///   1. HPF text: builder program -> print -> reparse -> reprint is a
///      fixpoint, and recompiling the reparsed program produces a
///      bit-identical serialized SPMD program.
///   2. SPMD text: serialize -> parse -> serialize is a fixpoint.
///   3. Execution: the program reconstructed from its serialized form runs
///      bit-identically to the directly compiled one (same simulated
///      clock, messages, bytes, accumulators, and array bits) on both
///      engines.
///
//===----------------------------------------------------------------------===//

#include "apps/Registry.h"
#include "core/Compiler.h"
#include "core/InPlace.h"
#include "hpf/HpfParser.h"
#include "hpf/HpfPrinter.h"
#include "pset/Relation.h"
#include "spmd/Interp.h"
#include "spmd/Serialize.h"

#include "gtest/gtest.h"

#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace dhpf;

namespace {

struct Subject {
  apps::AppInstance App;
  std::vector<int64_t> ProcShape;
};

std::vector<Subject> subjects() {
  std::vector<Subject> S;
  S.push_back({apps::makeJacobi(8, 2), {2, 2}});
  S.push_back({apps::makeTomcatv(10, 2), {2}});
  S.push_back({apps::makeErlebacher(8, 2), {2}});
  S.push_back({apps::makeGauss(8), {2, 2}});
  return S;
}

struct RunSnapshot {
  spmd::RunResult Result;
  std::map<std::string, std::vector<double>> Arrays;
};

RunSnapshot runOnce(const spmd::SpmdProgram &SP, const apps::AppInstance &App,
                    const std::vector<int64_t> &Shape,
                    spmd::EngineKind Engine) {
  spmd::RunConfig RC;
  RC.ProcExtents[App.ProcArrayName] = Shape;
  RC.Engine = Engine;
  spmd::Interpreter I(SP, RC);
  App.Setup(I);
  RunSnapshot Snap;
  Snap.Result = I.run();
  EXPECT_TRUE(Snap.Result.Valid);
  for (const auto &A : SP.Source->arrays())
    Snap.Arrays[A.first] = I.array(A.first).values();
  return Snap;
}

void expectBitIdentical(const RunSnapshot &A, const RunSnapshot &B) {
  EXPECT_EQ(A.Result.Messages, B.Result.Messages);
  EXPECT_EQ(A.Result.Bytes, B.Result.Bytes);
  EXPECT_EQ(A.Result.StmtInstances, B.Result.StmtInstances);
  EXPECT_EQ(A.Result.SimSeconds, B.Result.SimSeconds);
  EXPECT_EQ(A.Result.FinalAccums.size(), B.Result.FinalAccums.size());
  for (const auto &Acc : A.Result.FinalAccums) {
    auto It = B.Result.FinalAccums.find(Acc.first);
    ASSERT_NE(It, B.Result.FinalAccums.end()) << Acc.first;
    EXPECT_EQ(0, std::memcmp(&Acc.second, &It->second, sizeof(double)))
        << "accumulator " << Acc.first;
  }
  ASSERT_EQ(A.Arrays.size(), B.Arrays.size());
  for (const auto &Arr : A.Arrays) {
    auto It = B.Arrays.find(Arr.first);
    ASSERT_NE(It, B.Arrays.end()) << Arr.first;
    ASSERT_EQ(Arr.second.size(), It->second.size()) << Arr.first;
    EXPECT_EQ(0, std::memcmp(Arr.second.data(), It->second.data(),
                             Arr.second.size() * sizeof(double)))
        << "array " << Arr.first;
  }
}

TEST(RoundTrip, HpfPrintReparseReprintIsFixpoint) {
  for (const Subject &S : subjects()) {
    std::string Text = hpf::printHpfProgram(*S.App.Prog);
    DiagnosticEngine Diags;
    auto Reparsed = hpf::parseHpfProgram(Text, Diags, S.App.Name + ".hpf");
    ASSERT_TRUE(static_cast<bool>(Reparsed)) << S.App.Name << "\n"
                                             << Diags.str();
    EXPECT_FALSE(Diags.hasErrors());
    EXPECT_EQ(Text, hpf::printHpfProgram(**Reparsed)) << S.App.Name;
  }
}

TEST(RoundTrip, RecompiledReparsedProgramSerializesIdentically) {
  for (const Subject &S : subjects()) {
    auto Direct = core::compileProgram(*S.App.Prog);
    ASSERT_TRUE(Direct);
    std::string DirectText = spmd::serializeSpmdProgram(Direct->Program);

    DiagnosticEngine Diags;
    auto Reparsed = hpf::parseHpfProgram(hpf::printHpfProgram(*S.App.Prog),
                                         Diags, S.App.Name + ".hpf");
    ASSERT_TRUE(static_cast<bool>(Reparsed)) << Diags.str();
    auto FromText = core::compileProgram(**Reparsed);
    ASSERT_TRUE(FromText);
    EXPECT_EQ(DirectText, spmd::serializeSpmdProgram(FromText->Program))
        << S.App.Name;
  }
}

TEST(RoundTrip, SerializeParseSerializeIsFixpoint) {
  for (const Subject &S : subjects()) {
    auto Out = core::compileProgram(*S.App.Prog);
    ASSERT_TRUE(Out);
    std::string Text = spmd::serializeSpmdProgram(Out->Program);
    DiagnosticEngine Diags;
    auto Parsed = spmd::parseSpmdProgram(Text, Diags, S.App.Name + ".spmd");
    ASSERT_TRUE(Parsed) << S.App.Name << "\n" << Diags.str();
    EXPECT_FALSE(Diags.hasErrors());
    EXPECT_EQ(Text, spmd::serializeSpmdProgram(*Parsed)) << S.App.Name;
  }
}

TEST(RoundTrip, ParsedProgramRunsBitIdentically) {
  for (const Subject &S : subjects()) {
    auto Out = core::compileProgram(*S.App.Prog);
    ASSERT_TRUE(Out);
    DiagnosticEngine Diags;
    auto Parsed = spmd::parseSpmdProgram(
        spmd::serializeSpmdProgram(Out->Program), Diags, S.App.Name);
    ASSERT_TRUE(Parsed) << Diags.str();
    // The serialized form cannot carry the analysis-library function
    // pointer; the file consumer (dhpfc) wires it back the same way.
    Parsed->InPlaceRuntimeCheck = &core::checkInPlaceAtRuntime;

    for (spmd::EngineKind E :
         {spmd::EngineKind::Tree, spmd::EngineKind::Bytecode}) {
      RunSnapshot Direct = runOnce(Out->Program, S.App, S.ProcShape, E);
      RunSnapshot FromText = runOnce(*Parsed, S.App, S.ProcShape, E);
      expectBitIdentical(Direct, FromText);
      std::string Err;
      if (S.App.Check) {
        spmd::RunConfig RC;
        RC.ProcExtents[S.App.ProcArrayName] = S.ProcShape;
        RC.Engine = E;
        spmd::Interpreter I(*Parsed, RC);
        S.App.Setup(I);
        ASSERT_TRUE(I.run().Valid);
        EXPECT_TRUE(S.App.Check(I, Err)) << S.App.Name << ": " << Err;
      }
    }
  }
}

TEST(RoundTrip, RelationTextWithGeneratedNamesReparses) {
  // Compiler-generated parameters contain '$' (block sizes like B$T$0);
  // the set parser must accept toString() output for the embedded
  // relations of the .spmd format.
  Relation R = parseRelation(
      "[B$T$0,mv0] -> { [a0] : a0 >= mv0 && B$T$0 + mv0 >= a0 + 1 }");
  DiagnosticEngine Diags;
  auto Again = parseRelation(R.toString(), Diags);
  ASSERT_TRUE(static_cast<bool>(Again)) << Diags.str();
  EXPECT_EQ(R.toString(), Again->toString());
}

} // namespace
