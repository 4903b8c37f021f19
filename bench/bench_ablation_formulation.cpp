//===- bench/bench_ablation_formulation.cpp - Formulation ablation --------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Ablation for Section 5 ("Minimizing intermediate set sizes"): the paper
// reports that combining the DataAccessed maps for all reads before the
// downstream equations — rather than applying equations (4)-(7) per
// reference and unioning at the end — keeps intermediate disjunction
// counts (and compile time) down. Also covers coalescing on/off (one
// event per reference versus one per array).
//
// Every configuration compiles on the raw set engine (no operation cache,
// no fast paths, sequential analysis), as Table 1's breakdown does, so no
// configuration runs on a cache that an earlier one warmed.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"
#include "pset/OpCache.h"

#include <cstdio>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;

namespace {

double compileSeconds(const AppInstance &App, CompilerOptions Opts,
                      unsigned &Events) {
  Opts.AnalysisThreads = 1;
  auto C = compileProgram(*App.Prog, Opts);
  Events = C->NumCommEvents;
  return C->Timers.seconds(phase::Total);
}

void runCase(const char *Name,
             const std::function<AppInstance()> &Make) {
  CompilerOptions Combined, PerRef, NoCoalesce;
  PerRef.CombinedFormulation = false;
  NoCoalesce.Coalescing = false;
  unsigned E1, E2, E3;
  double T1 = compileSeconds(Make(), Combined, E1);
  double T2 = compileSeconds(Make(), PerRef, E2);
  double T3 = compileSeconds(Make(), NoCoalesce, E3);
  const char *Cheapest = T1 <= T2 && T1 <= T3 ? "combined"
                         : T2 <= T3           ? "per-ref"
                                              : "no-coalesce";
  std::printf("%-18s %8.3f %8.3f (%4.2fx) %8.3f (%4.2fx)  %2u/%2u/%2u  %s\n",
              Name, T1, T2, T2 / T1, T3, T3 / T1, E1, E2, E3, Cheapest);
}

} // namespace

int main() {
  pset::OpCache::global().setEnabled(false);
  std::printf("== Ablation: comm-equation formulation (Section 5), raw set "
              "engine ==\n");
  std::printf("%-18s %8s %17s %17s  %8s  %s\n", "code", "comb(s)",
              "per-ref(s)", "no-coalesce(s)", "events", "cheapest");
  runCase("jacobi 64", [] { return makeJacobi(64, 1); });
  runCase("tomcatv 130", [] { return makeTomcatv(130, 1); });
  runCase("erlebacher 32", [] { return makeErlebacher(32, 1); });
  runCase("sp-like 10 procs", [] { return makeSpLike(10, true); });
  return 0;
}
