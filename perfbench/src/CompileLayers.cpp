//===- perfbench/src/CompileLayers.cpp - Compile-layer split -------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "apps/Registry.h"
#include "core/CompilerDriver.h"
#include "hpf/HpfParser.h"
#include "hpf/HpfPrinter.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include <sstream>

using namespace dhpf;
using namespace perfbench;

std::string CompileLayers::compile(const std::string &Name,
                                   const std::string &Source, double &Seconds,
                                   std::string &Err) {
  double T0 = nowS();
  DiagnosticEngine Diags;
  std::unique_ptr<hpf::Program> Prog;
  {
    obs::TraceSpan Span = benchSpan("perfbench:hpf.parse");
    Expected<std::unique_ptr<hpf::Program>> P =
        hpf::parseHpfProgram(Source, Diags, Name);
    if (P)
      Prog = std::move(P).take();
  }
  std::unique_ptr<core::CompileOutput> Out;
  if (Prog)
    Out = core::CompilerDriver(*Prog, core::CompilerOptions(), &Diags).run();
  std::string Spmd;
  if (Out) {
    obs::TraceSpan Span = benchSpan("perfbench:spmd.serialize");
    Spmd = spmd::serializeSpmdProgram(Out->Program);
  }
  Seconds = nowS() - T0;
  if (!Out) {
    Err = Diags.str();
    return "";
  }
  {
    obs::TraceSpan Span = benchSpan("perfbench:spmd.parse");
    DiagnosticEngine PD;
    spmd::parseSpmdProgram(Spmd, PD, Name + ":spmd");
  }
  CommEq += Out->Timers.seconds(core::phase::CommEquations);
  MMCodegen += Out->Timers.seconds(core::phase::MMCodegen);
  Hits += Out->Cache.Hits;
  Misses += Out->Cache.Misses;
  InternLookups += Out->Cache.InternLookups;
  InternHits += Out->Cache.InternHits;
  CommEvents += Out->NumCommEvents;
  Contiguous += Out->NumContiguousProven;
  return Spmd;
}

void CompileLayers::takeSpans(const SpanTimes &T) {
  Parse = T.busy("perfbench:hpf.parse");
  Serialize = T.busy("perfbench:spmd.serialize");
  SpmdParse = T.busy("perfbench:spmd.parse");
  for (const std::string &P : core::CompilerDriver::passNames())
    PassS[P] = T.busy("pass:" + P);
}

void perfbench::publishCompileLayers(Report &R,
                                     const std::vector<CompileLayers> &V) {
  if (V.empty())
    return;
  auto Med = [&](const std::string &Name, auto Get) {
    std::vector<double> Xs;
    for (const CompileLayers &L : V)
      Xs.push_back(Get(L));
    R.set(Name, median(Xs), "s", V.size());
  };
  Med("hpf.parse_s", [](const CompileLayers &L) { return L.Parse; });
  Med("spmd.serialize_s", [](const CompileLayers &L) { return L.Serialize; });
  Med("spmd.parse_s", [](const CompileLayers &L) { return L.SpmdParse; });
  Med("pset.comm_equations_s", [](const CompileLayers &L) { return L.CommEq; });
  Med("cg.mm_codegen_s", [](const CompileLayers &L) { return L.MMCodegen; });
  for (const std::string &P : core::CompilerDriver::passNames())
    Med("core.pass." + P + "_s",
        [&P](const CompileLayers &L) { return L.PassS.at(P); });
  // Counts are exact and the same in every pass; report the last.
  const CompileLayers &L = V.back();
  R.set("pset.cache.hit_ratio",
        L.Hits + L.Misses ? double(L.Hits) / double(L.Hits + L.Misses) : 0,
        "ratio", 1);
  R.set("pset.intern.hit_ratio",
        L.InternLookups ? double(L.InternHits) / double(L.InternLookups) : 0,
        "ratio", 1);
  R.set("pset.cache.misses", static_cast<double>(L.ColdMisses), "count", 1);
  R.set("core.comm_events", static_cast<double>(L.CommEvents), "count", 1);
  R.set("core.contiguous_proven", static_cast<double>(L.Contiguous), "count",
        1);
}

std::vector<std::pair<std::string, std::string>>
perfbench::compileSubjects(bool Smoke) {
  unsigned Procs = Smoke ? 3 : 30;
  std::vector<std::pair<std::string, std::string>> Out;
  for (bool Symbolic : {true, false})
    Out.push_back(
        {Symbolic ? "sp-sym" : "sp-4",
         hpf::printHpfProgram(*apps::makeSpLike(Procs, Symbolic).Prog)});
  for (const apps::RegistryEntry &E : apps::appRegistry())
    Out.push_back({E.Name, hpf::printHpfProgram(*E.MakeCanonical().Prog)});
  return Out;
}

uint64_t perfbench::metricValue(const std::string &Text,
                                const std::string &Name) {
  std::istringstream In(Text);
  std::string K;
  long long V;
  while (In >> K >> V)
    if (K == Name)
      return static_cast<uint64_t>(V);
  return 0;
}
