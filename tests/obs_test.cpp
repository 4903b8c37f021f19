//===- tests/obs_test.cpp - Observability subsystem unit tests -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// The metrics registry and trace buffer under concurrency and at the edge
// cases the instrumented layers rely on:
//
//   - counters incremented from a ThreadPool sum exactly (relaxed atomics
//     lose nothing);
//   - TraceSpan nesting produces properly contained complete events;
//   - emitted Chrome JSON parses structurally, every event is a complete
//     ('X') or instant ('i') or metadata ('M') record, and the merged
//     multi-lane document keeps the lanes apart.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <thread>

using namespace dhpf;
using namespace dhpf::obs;

namespace {

//===----------------------------------------------------------------------===//
// A minimal structural JSON validator (no parser dependency): verifies
// balanced braces/brackets outside strings and legal string escapes.
//===----------------------------------------------------------------------===//

bool structurallyValidJson(const std::string &S) {
  int Depth = 0;
  bool InStr = false, Esc = false;
  for (char C : S) {
    if (InStr) {
      if (Esc)
        Esc = false;
      else if (C == '\\')
        Esc = true;
      else if (C == '"')
        InStr = false;
      else if (static_cast<unsigned char>(C) < 0x20)
        return false; // raw control character inside a string
      continue;
    }
    switch (C) {
    case '"':
      InStr = true;
      break;
    case '{':
    case '[':
      ++Depth;
      break;
    case '}':
    case ']':
      if (--Depth < 0)
        return false;
      break;
    default:
      break;
    }
  }
  return Depth == 0 && !InStr;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(Metrics, CounterConcurrentIncrementsSumExactly) {
  MetricsRegistry R;
  Counter *C = R.counter("test.concurrent");
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerTask = 10000;
  ThreadPool Pool(Threads);
  Pool.parallelFor(Threads * 4, [&](size_t) {
    for (uint64_t I = 0; I != PerTask; ++I)
      C->inc();
  });
  EXPECT_EQ(C->value(), Threads * 4 * PerTask);
}

TEST(Metrics, RegistryReturnsStablePointers) {
  MetricsRegistry R;
  Counter *A = R.counter("a");
  Gauge *G = R.gauge("g");
  for (int I = 0; I != 100; ++I)
    R.counter("pad." + std::to_string(I));
  EXPECT_EQ(R.counter("a"), A);
  EXPECT_EQ(R.gauge("g"), G);
  A->inc(3);
  G->set(-7);
  EXPECT_EQ(R.counter("a")->value(), 3u);
  EXPECT_EQ(R.gauge("g")->value(), -7);
}

TEST(Metrics, ReportsAreValidAndSorted) {
  MetricsRegistry R;
  R.counter("z.last")->inc(5);
  R.counter("a.first")->inc(1);
  R.gauge("m.gauge")->set(-3);
  std::string Text = R.reportText();
  std::string Json = R.reportJson();
  EXPECT_TRUE(structurallyValidJson(Json)) << Json;
  // Map iteration order: names appear sorted in the text report.
  size_t PA = Text.find("a.first");
  size_t PZ = Text.find("z.last");
  ASSERT_NE(PA, std::string::npos);
  ASSERT_NE(PZ, std::string::npos);
  EXPECT_LT(PA, PZ);
  EXPECT_NE(Text.find("a.first 1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("m.gauge -3"), std::string::npos) << Text;
}

TEST(Metrics, ResetAllZeroes) {
  MetricsRegistry R;
  R.counter("c")->inc(9);
  R.gauge("g")->set(4);
  R.resetAll();
  EXPECT_EQ(R.counter("c")->value(), 0u);
  EXPECT_EQ(R.gauge("g")->value(), 0);
}

//===----------------------------------------------------------------------===//
// TraceBuffer + TraceSpan
//===----------------------------------------------------------------------===//

TEST(Trace, SpanRecordsNothingWhenInactive) {
  TraceBuffer B;
  { TraceSpan S(&B, "idle", "test"); }
  EXPECT_EQ(B.eventCount(), 0u);
  { TraceSpan S(nullptr, "null-buffer", "test"); } // must not crash
}

TEST(Trace, NestedSpansAreContained) {
  TraceBuffer B;
  B.start();
  {
    TraceSpan Outer(&B, "outer", "test");
    {
      TraceSpan Inner(&B, "inner", "test");
    }
  }
  std::vector<TraceEvent> Evs = B.snapshot();
  ASSERT_EQ(Evs.size(), 2u);
  // Spans close inner-first (RAII order).
  EXPECT_EQ(Evs[0].Name, "inner");
  EXPECT_EQ(Evs[1].Name, "outer");
  EXPECT_EQ(Evs[0].Ph, 'X');
  EXPECT_EQ(Evs[1].Ph, 'X');
  // Containment: outer starts no later and ends no earlier than inner.
  EXPECT_LE(Evs[1].TsUs, Evs[0].TsUs);
  EXPECT_GE(Evs[1].TsUs + Evs[1].DurUs, Evs[0].TsUs + Evs[0].DurUs);
}

TEST(Trace, InstantAndArgsSurviveJsonRoundTrip) {
  TraceBuffer B;
  B.setLane(3, "lane \"three\"\n"); // name needing escapes
  B.start();
  B.instant("fault", "net", "\"rank\": 2, \"action\": \"drop\"");
  {
    TraceSpan S(&B, "span with \"quotes\"", "cat", "\"k\": 1");
  }
  std::string Doc = B.chromeJson();
  EXPECT_TRUE(structurallyValidJson(Doc)) << Doc;
  EXPECT_NE(Doc.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(Doc.find("\"rank\": 2"), std::string::npos);
  EXPECT_NE(Doc.find("\"pid\": 3"), std::string::npos);
}

TEST(Trace, ChromeJsonEventsBalancedAndTyped) {
  TraceBuffer B;
  B.start();
  for (int I = 0; I != 10; ++I) {
    TraceSpan S(&B, "op" + std::to_string(I), "test");
  }
  B.instant("mark", "test");
  std::string Doc = B.chromeJson();
  ASSERT_TRUE(structurallyValidJson(Doc)) << Doc;
  // Count the event phases: every record is 'M', or a complete 'X' (with
  // dur), or an instant 'i'. B/E pairs are never emitted, so a
  // well-formed doc needs no matching pass beyond this.
  size_t NX = 0, NI = 0, NM = 0, Pos = 0;
  while ((Pos = Doc.find("\"ph\": \"", Pos)) != std::string::npos) {
    char P = Doc[Pos + 7];
    if (P == 'X')
      ++NX;
    else if (P == 'i')
      ++NI;
    else if (P == 'M')
      ++NM;
    else
      ADD_FAILURE() << "unexpected phase '" << P << "'";
    ++Pos;
  }
  EXPECT_EQ(NM, 1u); // the lane metadata record
  EXPECT_EQ(NX, 10u);
  EXPECT_EQ(NI, 1u);
  // Every complete event carries a duration field.
  size_t NDur = 0;
  for (Pos = 0; (Pos = Doc.find("\"dur\": ", Pos)) != std::string::npos;
       ++Pos)
    ++NDur;
  EXPECT_EQ(NDur, NX);
}

TEST(Trace, StopFreezesBuffer) {
  TraceBuffer B;
  B.start();
  { TraceSpan S(&B, "before", "test"); }
  B.stop();
  { TraceSpan S(&B, "after", "test"); }
  B.instant("after-instant", "test");
  EXPECT_EQ(B.eventCount(), 1u);
}

TEST(Trace, ThreadIdsAreStablePerThread) {
  uint32_t A = threadId();
  EXPECT_EQ(threadId(), A);
  setThreadId(42);
  EXPECT_EQ(threadId(), 42u);
  setThreadId(A); // restore: other tests in this thread reuse the id
}

//===----------------------------------------------------------------------===//
// Cross-lane merge
//===----------------------------------------------------------------------===//

/// The "ts" of the first event named \p Name in \p Doc.
uint64_t tsOf(const std::string &Doc, const std::string &Name) {
  size_t At = Doc.find("{\"name\": \"" + Name + "\"");
  EXPECT_NE(At, std::string::npos) << Name;
  At = Doc.find("\"ts\": ", At);
  return std::strtoull(Doc.c_str() + At + 6, nullptr, 10);
}

TEST(Trace, MergePreservesLanesAndEvents) {
  TraceBuffer Driver, R0, R1, Late;
  Driver.setLane(0, "driver");
  R0.setLane(1, "rank 0");
  R1.setLane(2, "rank 1");
  Late.setLane(3, "rank 2");
  for (TraceBuffer *B : {&Driver, &R0, &R1})
    B->start();
  { TraceSpan S(&Driver, "compile", "compile"); }
  { TraceSpan S(&R0, "send", "rt.comm"); }
  { TraceSpan S(&R1, "recv", "rt.comm"); }
  { TraceSpan S(&R1, "send", "rt.comm"); }
  // A buffer started about 5 ms after the others: its lane moves by that
  // much in the merge, onto the others' clock.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Late.start();
  { TraceSpan S(&Late, "late", "rt"); }

  std::string LateDoc = Late.chromeJson();
  std::string Merged = mergeChromeTraces(
      {Driver.chromeJson(), R0.chromeJson(), R1.chromeJson(), LateDoc});
  ASSERT_TRUE(structurallyValidJson(Merged)) << Merged;
  // All four lanes present.
  EXPECT_NE(Merged.find("\"pid\": 0"), std::string::npos);
  EXPECT_NE(Merged.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(Merged.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(Merged.find("\"pid\": 3"), std::string::npos);
  size_t NSend = 0;
  for (size_t Pos = 0;
       (Pos = Merged.find("\"name\": \"send\"", Pos)) != std::string::npos;
       ++Pos)
    ++NSend;
  EXPECT_EQ(NSend, 2u);
  // The lane's own document keeps its buffer-relative time.
  uint64_t Own = tsOf(LateDoc, "late"), Shifted = tsOf(Merged, "late");
  EXPECT_LT(Own, 5000u);
  EXPECT_GE(Shifted, Own + 4999) << Merged;
  EXPECT_LT(Shifted, Own + 5000000) << Merged;
  EXPECT_LT(tsOf(Merged, "compile"), 5000u);
}

TEST(Trace, MergeSkipsEmptyAndMalformedDocs) {
  TraceBuffer B;
  B.setLane(5, "only");
  B.start();
  { TraceSpan S(&B, "solo", "test"); }
  std::string Merged = mergeChromeTraces(
      {"", "not json at all", "{\"noTraceEvents\": []}", B.chromeJson()});
  EXPECT_TRUE(structurallyValidJson(Merged)) << Merged;
  EXPECT_NE(Merged.find("\"pid\": 5"), std::string::npos);
}

TEST(Trace, MergeOfNothingIsValidEmptyDoc) {
  std::string Merged = mergeChromeTraces({});
  EXPECT_TRUE(structurallyValidJson(Merged)) << Merged;
  EXPECT_NE(Merged.find("\"traceEvents\""), std::string::npos);
}

} // namespace
