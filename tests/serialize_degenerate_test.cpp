//===- tests/serialize_degenerate_test.cpp - Degenerate serialization ----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization round-trip and execution fixpoints for degenerate
/// programs the Figure 7 benchmarks never produce — zero communication
/// events, empty iteration sets, single-processor grids — plus the
/// truncated-file behavior: every prefix of a valid .spmd must be rejected
/// with a file:line:col diagnostic, never a crash or an assert.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "hpf/HpfParser.h"
#include "rt/Session.h"
#include "spmd/Interp.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include "gtest/gtest.h"

#include <string>

using namespace dhpf;

namespace {

const char *NoCommSrc = R"(program nocomm
processors PR(2, 2)
template T(1:8, 1:8)
array A(1:8, 1:8) align (a0,a1) with T(a0,a1)
array B(1:8, 1:8) align (a0,a1) with T(a0,a1)
distribute T(block, block) onto PR

procedure main
  timeloop t = 1, 2
    nest copy
      do i = 1, 8
      do j = 1, 8
      B(i,j) = A(i,j)
    endnest
  endloop
endprocedure
)";

const char *EmptyIterSrc = R"(program emptyiter
processors PR(*P)
template T(1:8)
array A(1:8) align (a0) with T(a0)
distribute T(block) onto PR

procedure main
  timeloop t = 1, 1
    nest empty
      do i = 6, 5
      A(i) = A(i-1)
    endnest
  endloop
endprocedure
)";

const char *OneProcSrc = R"(program oneproc
processors PR(1)
template T(1:6)
array A(1:6) align (a0) with T(a0) init (a0) a0
distribute T(block) onto PR

procedure main
  timeloop t = 1, 2
    nest shift
      do i = 2, 6
      A(i) = A(i-1) + 1 accum sum acc A(i)
    endnest
    reduce sum acc
  endloop
endprocedure
)";

std::unique_ptr<core::CompileOutput>
compileSource(const char *Src, std::unique_ptr<hpf::Program> &ProgOut) {
  DiagnosticEngine Diags;
  auto Parsed = hpf::parseHpfProgram(Src, Diags, "<test>");
  EXPECT_TRUE(Parsed) << Diags.str();
  if (!Parsed)
    return nullptr;
  ProgOut = Parsed.take();
  auto Out = core::compileProgram(*ProgOut);
  EXPECT_TRUE(Out);
  return Out;
}

/// serialize -> parse -> serialize must be a fixpoint, and the reparsed
/// program must execute identically (seeded through the session).
void checkFixpointAndRun(const char *Src, int64_t NumProcs,
                         uint64_t ExpectMessages, uint64_t ExpectStmts) {
  std::unique_ptr<hpf::Program> Prog;
  auto Out = compileSource(Src, Prog);
  ASSERT_TRUE(Out);
  std::string Text = spmd::serializeSpmdProgram(Out->Program);

  DiagnosticEngine Diags;
  auto Reparsed = spmd::parseSpmdProgram(Text, Diags, "<roundtrip>");
  ASSERT_TRUE(Reparsed) << Diags.str();
  EXPECT_EQ(Text, spmd::serializeSpmdProgram(*Reparsed));

  for (spmd::SpmdProgram *SP : {&Out->Program, Reparsed.get()}) {
    rt::SessionOptions SO;
    SO.NumProcs = NumProcs;
    std::string Err;
    auto S = rt::resolveSession(*SP, SO, Err);
    ASSERT_TRUE(S) << Err;
    for (spmd::EngineKind E :
         {spmd::EngineKind::Tree, spmd::EngineKind::Bytecode}) {
      spmd::RunConfig RC = S->Config;
      RC.Engine = E;
      spmd::Interpreter I(*SP, RC);
      S->setup(*SP, I);
      spmd::RunResult R = I.run();
      EXPECT_TRUE(R.Valid);
      EXPECT_EQ(R.Messages, ExpectMessages);
      EXPECT_EQ(R.StmtInstances, ExpectStmts);
    }
  }
}

TEST(SerializeDegenerate, ZeroCommEvents) {
  std::unique_ptr<hpf::Program> Prog;
  auto Out = compileSource(NoCommSrc, Prog);
  ASSERT_TRUE(Out);
  EXPECT_EQ(Out->NumCommEvents, 0u);
  checkFixpointAndRun(NoCommSrc, 4, 0, 2 * 8 * 8);
}

TEST(SerializeDegenerate, EmptyIterationSets) {
  checkFixpointAndRun(EmptyIterSrc, 4, 0, 0);
}

TEST(SerializeDegenerate, SingleProcessorShape) {
  checkFixpointAndRun(OneProcSrc, 1, 0, 2 * 5);
}

TEST(SerializeDegenerate, EmptyFileDiagnosed) {
  DiagnosticEngine Diags;
  EXPECT_EQ(nullptr, spmd::parseSpmdProgram("", Diags, "empty.spmd"));
  EXPECT_NE(Diags.str().find("empty.spmd:1:"), std::string::npos)
      << Diags.str();
}

/// Every strict prefix of a valid serialized program must be rejected
/// with a diagnostic carrying the file name and a line number — never an
/// assert, crash, or silent acceptance.
TEST(SerializeDegenerate, EveryTruncationDiagnosedWithFileLine) {
  std::unique_ptr<hpf::Program> Prog;
  auto Out = compileSource(OneProcSrc, Prog);
  ASSERT_TRUE(Out);
  std::string Text = spmd::serializeSpmdProgram(Out->Program);
  ASSERT_GT(Text.size(), 100u);
  // Stop short of the closing bytes: a prefix holding the complete final
  // s-expression minus only trailing whitespace is a valid program.
  for (size_t Len = 0; Len + 2 < Text.size(); Len += 7) {
    DiagnosticEngine Diags;
    auto P = spmd::parseSpmdProgram(Text.substr(0, Len), Diags,
                                    "trunc.spmd");
    EXPECT_EQ(nullptr, P) << "prefix of " << Len << " bytes accepted";
    ASSERT_FALSE(Diags.empty()) << "no diagnostic at " << Len << " bytes";
    // file:line:col prefix
    EXPECT_EQ(Diags.str().rfind("trunc.spmd:", 0), 0u)
        << "at " << Len << " bytes: " << Diags.str();
  }
}

/// Garbage after a valid program is also a diagnostic, not an assert.
TEST(SerializeDegenerate, TrailingGarbageDiagnosed) {
  std::unique_ptr<hpf::Program> Prog;
  auto Out = compileSource(OneProcSrc, Prog);
  ASSERT_TRUE(Out);
  std::string Text = spmd::serializeSpmdProgram(Out->Program) + "\n(junk)";
  DiagnosticEngine Diags;
  EXPECT_EQ(nullptr, spmd::parseSpmdProgram(Text, Diags, "tail.spmd"));
  EXPECT_FALSE(Diags.empty());
}

} // namespace
