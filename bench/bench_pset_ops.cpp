//===- bench/bench_pset_ops.cpp - Set-engine microbenchmarks -------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// google-benchmark microbenchmarks of the Presburger engine underlying the
// compiler (supporting the Section 6 claim that set manipulation is not
// the dominant cost): satisfiability, subtraction, composition,
// simplification, hulls, and code generation on sets representative of the
// compiler's workload (layouts, CPMaps, communication sets). JSON goes
// only where --benchmark_out= points.
//
//===----------------------------------------------------------------------===//

#include "cg/CodeGen.h"
#include "pset/Fingerprint.h"
#include "pset/OpCache.h"
#include "pset/Relation.h"

#include <benchmark/benchmark.h>

using namespace dhpf;

namespace {

/// Scoped switch for the global operation cache. The plain engine
/// benchmarks run uncached (they measure the algorithms, not the cache);
/// the *_Cached variants measure the memoized steady state.
struct CacheScope {
  explicit CacheScope(bool On) {
    pset::OpCache::global().clear();
    pset::OpCache::global().setEnabled(On);
  }
  ~CacheScope() {
    pset::OpCache::global().clear();
    pset::OpCache::global().setEnabled(true);
  }
};

const char *LayoutText =
    "[B] -> { [v] -> [a1,a2] : 0 <= a1 <= 99 && v <= a2 <= v + B - 1 && "
    "1 <= a2 <= 100 && 1 <= v <= 100 }";
const char *CPMapText =
    "[N] -> { [p] -> [i,j] : 1 <= i <= N && 2 <= j <= N + 1 && "
    "25p + 2 <= j <= 25p + 26 && 0 <= p <= 3 }";

void BM_ParseRelation(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(parseRelation(CPMapText));
}
BENCHMARK(BM_ParseRelation);

void BM_IsEmpty(benchmark::State &State) {
  CacheScope Off(false);
  Relation R = parseRelation(CPMapText);
  for (auto _ : State)
    benchmark::DoNotOptimize(R.isEmpty());
}
BENCHMARK(BM_IsEmpty);

void BM_IsEmptyWithStrides(benchmark::State &State) {
  CacheScope Off(false);
  Relation R = parseRelation(
      "{ [i] : 0 <= i <= 1000 && exists(a : i = 6a + 3) && "
      "exists(b : i = 4b + 1) }");
  for (auto _ : State)
    benchmark::DoNotOptimize(R.isEmpty());
}
BENCHMARK(BM_IsEmptyWithStrides);

void BM_Subtract(benchmark::State &State) {
  CacheScope Off(false);
  Relation A = parseRelation("[m] -> { [a1,a2] : 0 <= a1 <= 99 && "
                             "25m + 1 <= a2 <= 25m + 26 }");
  Relation B = parseRelation("[m] -> { [a1,a2] : 0 <= a1 <= 99 && "
                             "25m + 1 <= a2 <= 25m + 25 }");
  for (auto _ : State)
    benchmark::DoNotOptimize(A.subtract(B));
}
BENCHMARK(BM_Subtract);

void BM_Compose(benchmark::State &State) {
  CacheScope Off(false);
  Relation Layout = parseRelation(LayoutText);
  Relation RefMapInv = parseRelation(
      "{ [a1,a2] -> [i,j] : a1 = j - 1 && a2 = i }");
  for (auto _ : State)
    benchmark::DoNotOptimize(Layout.composeWith(RefMapInv));
}
BENCHMARK(BM_Compose);

void BM_Simplify(benchmark::State &State) {
  CacheScope Off(false);
  Relation R = parseRelation(CPMapText)
                   .composeWith(parseRelation(
                       "{ [i,j] -> [a1,a2] : a1 = j - 1 && a2 = i }"));
  for (auto _ : State)
    benchmark::DoNotOptimize(R.simplify());
}
BENCHMARK(BM_Simplify);

void BM_SimpleHull(benchmark::State &State) {
  CacheScope Off(false);
  Relation R = parseRelation("{ [i,j] : 0 <= i <= 50 && j = 0 or "
                             "20 <= i <= 90 && 0 <= j <= 1 }");
  for (auto _ : State)
    benchmark::DoNotOptimize(R.simpleHull());
}
BENCHMARK(BM_SimpleHull);

void BM_SubsetCheck(benchmark::State &State) {
  CacheScope Off(false);
  Relation A = parseRelation(CPMapText);
  Relation B = parseRelation(
      "[N] -> { [p] -> [i,j] : 1 <= i <= N && 2 <= j <= N + 1 && "
      "0 <= p <= 3 }");
  for (auto _ : State)
    benchmark::DoNotOptimize(A.isSubsetOf(B));
}
BENCHMARK(BM_SubsetCheck);

void BM_CodegenStencilIters(benchmark::State &State) {
  CacheScope Off(false);
  Relation S = parseRelation(
      "[mv0,N] -> { [i,j] : 2 <= i <= N - 1 && 2 <= j <= N - 1 && "
      "32mv0 + 1 <= i <= 32mv0 + 32 }");
  for (auto _ : State) {
    cg::VarTable Vars;
    cg::CodeGen CG(Vars);
    benchmark::DoNotOptimize(CG.codegenSet(S, {"i", "j"}));
  }
}
BENCHMARK(BM_CodegenStencilIters);

void BM_CodegenStrided(benchmark::State &State) {
  CacheScope Off(false);
  Relation S = parseRelation(
      "[P,mc] -> { [v] : 1 <= v <= 100 && exists(a : v = 4a + mc) }");
  for (auto _ : State) {
    cg::VarTable Vars;
    cg::CodeGen CG(Vars);
    benchmark::DoNotOptimize(CG.codegenSet(S, {"v"}));
  }
}
BENCHMARK(BM_CodegenStrided);

void BM_ConvexityTest(benchmark::State &State) {
  CacheScope Off(false);
  Relation Gap = parseRelation("{ [i] : 0 <= i <= 30 or 40 <= i <= 90 }");
  for (auto _ : State)
    benchmark::DoNotOptimize(Gap.isConvexProven());
}
BENCHMARK(BM_ConvexityTest);

//===----------------------------------------------------------------------===
// Performance layer: fingerprinting cost and memoized steady state.
//===----------------------------------------------------------------------===

void BM_Fingerprint(benchmark::State &State) {
  Relation R = parseRelation(CPMapText);
  for (auto _ : State)
    benchmark::DoNotOptimize(pset::fingerprint(R));
}
BENCHMARK(BM_Fingerprint);

void BM_SubtractCached(benchmark::State &State) {
  CacheScope On(true);
  Relation A = parseRelation("[m] -> { [a1,a2] : 0 <= a1 <= 99 && "
                             "25m + 1 <= a2 <= 25m + 26 }");
  Relation B = parseRelation("[m] -> { [a1,a2] : 0 <= a1 <= 99 && "
                             "25m + 1 <= a2 <= 25m + 25 }");
  benchmark::DoNotOptimize(A.subtract(B)); // warm
  for (auto _ : State)
    benchmark::DoNotOptimize(A.subtract(B));
}
BENCHMARK(BM_SubtractCached);

void BM_ComposeCached(benchmark::State &State) {
  CacheScope On(true);
  Relation Layout = parseRelation(LayoutText);
  Relation RefMapInv = parseRelation(
      "{ [a1,a2] -> [i,j] : a1 = j - 1 && a2 = i }");
  benchmark::DoNotOptimize(Layout.composeWith(RefMapInv)); // warm
  for (auto _ : State)
    benchmark::DoNotOptimize(Layout.composeWith(RefMapInv));
}
BENCHMARK(BM_ComposeCached);

void BM_IsEmptyStridesCached(benchmark::State &State) {
  CacheScope On(true);
  Relation R = parseRelation(
      "{ [i] : 0 <= i <= 1000 && exists(a : i = 6a + 3) && "
      "exists(b : i = 4b + 1) }");
  benchmark::DoNotOptimize(R.isEmpty()); // warm
  for (auto _ : State)
    benchmark::DoNotOptimize(R.isEmpty());
}
BENCHMARK(BM_IsEmptyStridesCached);

void BM_DisjointSubtractFastPath(benchmark::State &State) {
  // Bounding boxes prove the operands disjoint, so the cheap reject skips
  // the Omega-test work entirely (cache cleared per iteration to measure
  // the fast path, not the memoized replay).
  CacheScope On(true);
  Relation A = parseRelation("{ [i,j] : 0 <= i <= 40 && 0 <= j <= 40 }");
  Relation B = parseRelation("{ [i,j] : 50 <= i <= 90 && 0 <= j <= 40 }");
  for (auto _ : State) {
    pset::OpCache::global().clear();
    benchmark::DoNotOptimize(A.subtract(B));
  }
}
BENCHMARK(BM_DisjointSubtractFastPath);

} // namespace

BENCHMARK_MAIN();
