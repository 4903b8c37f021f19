//===- tests/malformed_input_test.cpp - Bad-input rejection corpus -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A corpus of malformed inputs for every textual front end — mini-HPF
/// programs, set/relation text, and serialized SPMD programs. Each case
/// must be rejected with an error diagnostic on the expected line, without
/// crashing and without asserting, so the behavior is identical in Debug
/// and Release builds (this file is part of the Release CI job). A
/// malformed input must never silently produce a program.
///
//===----------------------------------------------------------------------===//

#include "core/CompilerDriver.h"
#include "hpf/HpfParser.h"
#include "pset/Relation.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace dhpf;

namespace {

/// One corpus entry: the input text and the 1-based line the first error
/// diagnostic must point at (0 = any line, for whole-input conditions).
struct BadCase {
  const char *Name;
  std::string Text;
  unsigned Line;
};

void expectErrorAtLine(const DiagnosticEngine &Diags, unsigned Line,
                       const char *Name) {
  ASSERT_TRUE(Diags.hasErrors()) << Name << ": accepted malformed input";
  if (Line == 0)
    return;
  for (const Diagnostic &D : Diags.diagnostics()) {
    if (D.S != Severity::Error)
      continue;
    EXPECT_EQ(Line, D.Loc.Line) << Name << ": first error at wrong line: "
                                << D.str();
    return;
  }
}

TEST(MalformedInput, HpfParseErrors) {
  const std::vector<BadCase> Cases = {
      {"unknown keyword", "program p\nfrobnicate x\n", 2},
      {"unterminated bounds", "program p\narray A(1:bad\n", 2},
      {"missing program name", "program\n", 1},
      {"bad processors extent", "program p\nprocessors P(zero)\n", 2},
      {"unknown distribution kind",
       "program p\nprocessors P(4)\ntemplate T(1:8)\n"
       "distribute T(diagonal) onto P\n",
       4},
      {"align without with",
       "program p\narray A(1:8) align (i) T(i)\n", 2},
      {"statement outside nest",
       "program p\narray A(1:8)\nprocedure main\nA(1) = A(2)\n", 4},
      {"do outside nest",
       "program p\nprocedure main\ndo i = 2, 7\n", 3},
      {"malformed do bounds",
       "program p\narray A(1:8)\nprocedure main\nnest n\ndo i = 2,\n"
       "A(i) = A(i)\nendnest\nendprocedure\n",
       5},
      {"overflowing literal",
       "program p\narray A(1:9999999999999999999)\n", 2},
      {"unterminated nest",
       "program p\narray A(1:8)\nprocedure main\nnest n\ndo i = 2, 7\n"
       "A(i) = A(i)\n",
       0},
      {"bad reduce op",
       "program p\nprocedure main\nreduce median r\nendprocedure\n", 3},
      {"endnest without nest",
       "program p\nprocedure main\nendnest\n", 3},
      {"missing program line", "array A(1:8)\n", 0},
      {"cyclic(0)",
       "program p\nprocessors P(4)\ntemplate T(1:8)\n"
       "distribute T(cyclic(0)) onto P\n",
       4},
      {"zero processor extent", "program p\nprocessors P(0, 2)\n", 2},
  };
  for (const BadCase &C : Cases) {
    DiagnosticEngine Diags;
    auto P = hpf::parseHpfProgram(C.Text, Diags, "bad.hpf");
    EXPECT_FALSE(static_cast<bool>(P)) << C.Name;
    expectErrorAtLine(Diags, C.Line, C.Name);
  }
}

/// Inputs that parse but are semantically malformed: the driver's
/// validation rejects them (so `dhpfc compile` fails with a diagnostic
/// instead of tripping an assert — or silently miscompiling in Release).
TEST(MalformedInput, HpfValidationErrors) {
  const std::vector<const char *> Cases = {
      // undeclared array read inside a nest
      "program p\narray A(1:8)\nprocedure main\nnest n\ndo i = 2, 7\n"
      "B(i) = A(i)\nendnest\nendprocedure\n",
      // subscript arity mismatch
      "program p\narray A(1:8)\nprocedure main\nnest n\ndo i = 2, 7\n"
      "A(i,i) = A(i)\nendnest\nendprocedure\n",
      // duplicate loop variable in one nest
      "program p\narray A(1:8,1:8)\nprocedure main\nnest n\ndo i = 2, 7\n"
      "do i = 2, 7\nA(i,i) = A(i,i)\nendnest\nendprocedure\n",
      // align to an undeclared template
      "program p\narray A(1:8) align (i) with T(i)\n",
      // distribute an undeclared template
      "program p\nprocessors P(4)\ndistribute T(block) onto P\n",
      // distribute onto an undeclared processor array
      "program p\ntemplate T(1:8)\ndistribute T(block) onto P\n",
      // distribution arity mismatch
      "program p\nprocessors P(4)\ntemplate T(1:8)\n"
      "distribute T(block, block) onto P\n",
      // a template dimension that holds no cell
      "program p\nprocessors P(4)\ntemplate T(5:4)\n"
      "array A(1:8) align (i) with T(i)\ndistribute T(block) onto P\n",
      // a read past the array: B(i+1) reaches B(17)
      "program p\nprocessors P(4)\ntemplate T(1:16)\n"
      "array A(1:16) align (i) with T(i)\narray B(1:16) align (i) with T(i)\n"
      "distribute T(block) onto P\nprocedure main\nnest copy\n"
      "do i = 1, 16\nA(i) = B(i+1)\nendnest\nendprocedure\n",
  };
  for (const char *Text : Cases) {
    DiagnosticEngine Diags;
    auto P = hpf::parseHpfProgram(Text, Diags, "bad.hpf");
    ASSERT_TRUE(static_cast<bool>(P)) << Text << "\n" << Diags.str();
    EXPECT_FALSE(core::validateProgram(**P, Diags)) << Text;
    EXPECT_TRUE(Diags.hasErrors()) << Text;
  }
}

/// A flow dependence across processors inside the communication level: the
/// write A(i,j) at (i,j) is read at (i+1,j-1), on the next block of j, and
/// nothing sends it (examples/regress/skewswap.hpf is this nest with
/// vectorize 1). It used to compile and run silently wrong at P >= 2.
TEST(MalformedInput, FlowAcrossProcessorsInsideCommLevel) {
  const char *Text = "program skew\n"
                     "processors P(*NP)\n"
                     "template T(1:32, 1:32)\n"
                     "array A(1:32, 1:32) align (a0,a1) with T(a0,a1)\n"
                     "array B(1:32, 1:32) align (a0,a1) with T(a0,a1)\n"
                     "distribute T(*, block) onto P\n"
                     "procedure main\n"
                     "  nest skew\n"
                     "    do i = 2, 31\n"
                     "    do j = 2, 31\n"
                     "    A(i,j) = A(i-1,j+1) + 0.5*B(i,j-1)\n"
                     "  endnest\n"
                     "endprocedure\n";
  DiagnosticEngine Diags;
  auto P = hpf::parseHpfProgram(Text, Diags, "skew.hpf");
  ASSERT_TRUE(static_cast<bool>(P)) << Diags.str();
  EXPECT_EQ(nullptr, core::CompilerDriver(**P, {}, &Diags).run());
  EXPECT_NE(Diags.str().find("skew: error: nest 'skew'"), std::string::npos)
      << Diags.str();
  EXPECT_NE(Diags.str().find("'nest skew vectorize 1'"), std::string::npos)
      << Diags.str();
}

TEST(MalformedInput, SetText) {
  const std::vector<BadCase> Cases = {
      {"unterminated tuple", "{ [a : a >= 0 }", 1},
      {"missing braces", "[p] -> [i]", 1},
      {"garbage constraint", "{ [i] : i >< 3 }", 1},
      {"unterminated exists", "{ [i] : exists(e : i = e }", 1},
      {"trailing garbage", "{ [i] : i >= 0 } extra", 1},
      {"multiline error on line 2", "{ [i,j] :\n i >= && j >= 0 }", 2},
      {"overflowing coefficient",
       "{ [i] : 9999999999999999999 * i >= 0 }", 1},
  };
  for (const BadCase &C : Cases) {
    DiagnosticEngine Diags;
    auto R = parseRelation(C.Text, Diags, "bad.set");
    EXPECT_FALSE(static_cast<bool>(R)) << C.Name;
    expectErrorAtLine(Diags, C.Line, C.Name);
  }
}

/// A minimal well-formed .spmd skeleton the structural cases perturb.
std::string spmdSkeleton(const std::string &Events, const std::string &Root) {
  return "(spmd 3\n"                                       // line 1
         " (vars \"i\")\n"                                 // line 2
         " (proc \"P\" (vpdim block 0 4 \"\" 2 \"\" 0 1 0))\n" // line 3
         " (myslots 0)\n"                                  // line 4
         " (coordslots 0)\n"                               // line 5
         " (stmts)\n"                                      // line 6
         " (events" + Events + ")\n"                       // line 7
         " (root " + Root + ")\n"                          // line 8
         " (source nil))\n";                               // line 9
}

TEST(MalformedInput, SpmdPrograms) {
  const std::vector<BadCase> Cases = {
      {"empty input", "", 0},
      {"truncated list", "(spmd 3 (vars", 1},
      {"wrong magic", "(program 1)", 1},
      {"version 1", "(spmd 1)", 1},
      {"version 2", "(spmd 2)", 1},
      {"unsupported version", "(spmd 4)", 1},
      {"missing sections", "(spmd 3 (vars))", 1},
      {"trailing garbage", spmdSkeleton("", "(seq)") + ")", 10},
      {"duplicate section",
       "(spmd 3 (vars) (vars) (proc \"P\") (myslots) (coordslots) (stmts) "
       "(events) (root (seq)) (source nil))",
       1},
      {"slot out of range", spmdSkeleton("", "(compute \"n\" (loop \"i\" 7 "
                                             "(c 1) (c 4) (c 1) (leaf 0 "
                                             "\"x\")))"),
       8},
      {"leaf id out of range", spmdSkeleton("", "(compute \"n\" (leaf 3 "
                                                "\"x\"))"),
       8},
      {"send names missing event", spmdSkeleton("", "(send 0)"), 8},
      {"nil operand inside add", spmdSkeleton("", "(timeloop \"i\" 0 (+ nil "
                                                  "(c 1)) (c 3) (seq))"),
       8},
      {"zero divisor", spmdSkeleton("", "(timeloop \"i\" 0 (fdiv 0 (c 4)) "
                                        "(c 3) (seq))"),
       8},
      {"v2 event with a v1 (inplace ...) item",
       spmdSkeleton(" (event 0 \"A\" (0) (0) 0 (inplace runtime -1 nil "
                    "nil) (block) (block))",
                    "(seq)"),
       7},
      {"bad embedded source",
       "(spmd 3\n (vars)\n (proc \"P\")\n (myslots)\n (coordslots)\n"
       " (stmts)\n (events)\n (root (seq))\n (source \"program\"))\n",
       0},
      {"unterminated string", "(spmd 3 (vars \"i))", 1},
      {"non-integer slot", "(spmd 3 (vars \"i\") (proc \"P\") (myslots 1.5) "
                           "(coordslots) (stmts) (events) (root (seq)) "
                           "(source nil))",
       1},
  };
  for (const BadCase &C : Cases) {
    DiagnosticEngine Diags;
    auto P = spmd::parseSpmdProgram(C.Text, Diags, "bad.spmd");
    EXPECT_EQ(nullptr, P) << C.Name;
    expectErrorAtLine(Diags, C.Line, C.Name);
  }
}

/// Every corpus entry above must also fail through the abort-free public
/// entry points when diagnostics are collected; none may leave the engine
/// empty (a silent failure would be indistinguishable from success).
TEST(MalformedInput, EveryFailureIsDiagnosed) {
  DiagnosticEngine Diags;
  auto P = hpf::parseHpfProgram("program p\nnonsense\n", Diags);
  EXPECT_FALSE(static_cast<bool>(P));
  EXPECT_FALSE(Diags.empty());
  EXPECT_GE(Diags.errorCount(), 1u);
  // Recovery: both bad lines of a two-error input are reported in one pass.
  Diags.clear();
  auto P2 = hpf::parseHpfProgram("program p\nnonsense\nmore nonsense\n",
                                 Diags);
  EXPECT_FALSE(static_cast<bool>(P2));
  EXPECT_GE(Diags.errorCount(), 2u);
}

} // namespace
