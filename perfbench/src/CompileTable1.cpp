//===- perfbench/src/CompileTable1.cpp - Table 1 compiles ----------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `compile-table1` workload: the Table 1 subjects (sp-sym, 30
/// procedures on a symbolic 2 x (P/2) grid, and SP-4 on a fixed 2x2 grid)
/// plus the four canonical Figure 7 programs, compiled from text two ways:
///
///   - cold: a fresh `dhpfc compile` process per subject, so the OpCache,
///     intern table and artifact cache start empty (a batch compile);
///   - warm: this long-lived process recompiles through
///     core::CompilerService with the artifact cache bypassed, so the
///     compiler reruns against a hot OpCache.
///
/// The set engine and the compiler passes do almost all the work and
/// nothing executes; cold compiles mostly write the caches and warm ones
/// mostly read them. Oracle: every .spmd is byte-identical to the set-up
/// compile of the same subject, and the canonical Figure 7 outputs pass
/// their serial reference check under the tree interpreter.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "apps/Registry.h"
#include "core/CompilerService.h"
#include "core/InPlace.h"
#include "rt/Session.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include <algorithm>
#include <stdexcept>

using namespace dhpf;
using namespace perfbench;

namespace {

struct Subject {
  std::string Label;
  std::string Source;
  bool Canonical = false; ///< a registry Figure 7 program
  std::string Ref;        ///< the set-up compile's .spmd
};

struct Pass {
  double Seconds = 0, ColdS = 0, WarmS = 0;
  CompileLayers Layers; ///< traced passes only
};

class CompileTable1 : public Workload {
public:
  CompileTable1(const Options &O, Report &R) : Workload(O, R) {
    Dhpfc = O.BinDir + "/dhpfc/dhpfc";
    for (auto &[Label, Source] : compileSubjects(O.Smoke))
      Subjects.push_back(
          {Label, Source, apps::findApp(Label) != nullptr, ""});
  }

  void setup(bool) override {
    for (Subject &S : Subjects) {
      if (!writeFile(S.Label + ".hpf", S.Source))
        throw std::runtime_error("cannot write " + S.Label + ".hpf");
      core::CompileRequest R;
      R.Name = S.Label + ".hpf";
      R.Source = S.Source;
      auto A = core::CompilerService::global().compile(R);
      if (!A->Ok)
        throw std::runtime_error("compile of " + S.Label + " failed:\n" +
                                 A->DiagText);
      S.Ref = A->Spmd;
    }
  }

  void prepareOracle() override {
    for (const Subject &S : Subjects) {
      if (!S.Canonical)
        continue;
      std::string Why = runCanonical(S);
      if (!Why.empty())
        Rep.fail(S.Label + ": " + Why);
    }
    if (Opts.TamperOracle) {
      std::string &Ref = Subjects.front().Ref;
      Ref[Ref.size() / 2] ^= 1;
    }
  }

  void measure(double Seconds, bool Traced) override {
    obs::TraceBuffer &TB = obs::TraceBuffer::global();
    if (Traced)
      TB.start();
    double T0 = nowS();
    for (unsigned K = passesFor(Seconds, PassSeconds);
         K != 0 && !overBudget(T0, Seconds); --K) {
      Rng G(Opts.Seed * 1000003 + Passes.size() + TracedPasses.size());
      std::vector<Subject *> Order;
      for (Subject &S : Subjects)
        Order.push_back(&S);
      std::shuffle(Order.begin(), Order.end(), G);
      if (Traced)
        TB.clear();
      Pass Ps;
      double P0 = nowS();
      for (Subject *S : Order) {
        cold(*S, Traced, Ps);
        if (Traced)
          warmTraced(*S, Ps);
        else
          warm(*S, Ps);
      }
      Ps.Seconds = nowS() - P0;
      if (Traced) {
        Ps.Layers.takeSpans(spanTimes(spansOf(TB.snapshot())));
        TracedPasses.push_back(std::move(Ps));
      } else {
        Passes.push_back(std::move(Ps));
      }
    }
    TB.stop();
    TB.clear();
  }

  void finish(bool TraceRun) override {
    size_t N = Passes.size();
    Rep.set("compile_cold_s",
            median(column(Passes, [](const Pass &P) { return P.ColdS; })), "s",
            N);
    Rep.set("compile_warm_s",
            median(column(Passes, [](const Pass &P) { return P.WarmS; })), "s",
            N);
    if (!TraceRun) {
      Ops.publish(Rep);
      return;
    }
    const std::vector<Pass> &T = TracedPasses;
    size_t NT = T.size();
    std::vector<CompileLayers> Layers;
    for (const Pass &P : T)
      Layers.push_back(P.Layers);
    publishCompileLayers(Rep, Layers);
    double Untraced =
        median(column(Passes, [](const Pass &X) { return X.Seconds; }));
    double Traced = median(column(T, [](const Pass &X) { return X.Seconds; }));
    Rep.set("obs.trace_overhead", Untraced > 0 ? Traced / Untraced - 1 : 0,
            "ratio", NT);
  }

private:
  /// One pass (six cold and six warm compiles) takes about this long on a
  /// 4-core machine.
  static constexpr double PassSeconds = 2.0;

  std::string Dhpfc;
  std::vector<Subject> Subjects;
  std::vector<Pass> Passes, TracedPasses;
  OpLatencies Ops;

  std::string compare(const Subject &S, const std::string &Spmd,
                      const char *How) const {
    return Spmd == S.Ref ? ""
                         : std::string(How) + " compile of " + S.Label +
                               " is not byte-identical to the set-up compile";
  }

  void cold(const Subject &S, bool Traced, Pass &Ps) {
    std::string Out = S.Label + ".cold.spmd", Metrics = S.Label + ".cold.txt";
    std::vector<std::string> Argv = {Dhpfc, "compile", S.Label + ".hpf", "-o",
                                     Out};
    if (Traced)
      Argv.push_back("--metrics=" + Metrics);
    ProcResult P = runProcess(Argv);
    Ops.add("cold:" + S.Label, P.Seconds);
    Ps.ColdS += P.Seconds;
    std::string Spmd;
    if (!P.Ok || !readFile(Out, Spmd)) {
      Rep.op("cold compile of " + S.Label + " failed:\n" + P.Output);
      return;
    }
    Rep.op(compare(S, Spmd, "cold"));
    if (Traced) {
      std::string Text;
      readFile(Metrics, Text);
      Ps.Layers.ColdMisses += metricValue(Text, "pset.cache.misses");
    }
  }

  void warm(const Subject &S, Pass &Ps) {
    core::CompileRequest R;
    R.Name = S.Label + ".hpf";
    R.Source = S.Source;
    R.BypassArtifactCache = true;
    double T0 = nowS();
    auto A = core::CompilerService::global().compile(R);
    double Secs = nowS() - T0;
    Ops.add("warm:" + S.Label, Secs);
    Ps.WarmS += Secs;
    Rep.op(A->Ok ? compare(S, A->Spmd, "warm")
                 : "warm compile of " + S.Label + " failed:\n" + A->DiagText);
  }

  void warmTraced(const Subject &S, Pass &Ps) {
    double Secs = 0;
    std::string Err;
    std::string Spmd =
        Ps.Layers.compile(S.Label + ".hpf", S.Source, Secs, Err);
    Ops.add("warm:" + S.Label, Secs);
    Ps.WarmS += Secs;
    Rep.op(Spmd.empty() ? "warm compile of " + S.Label + " failed:\n" + Err
                        : compare(S, Spmd, "warm"));
  }

  /// Executes one canonical Figure 7 output with the tree interpreter and
  /// its serial reference check.
  std::string runCanonical(const Subject &S) const {
    DiagnosticEngine Diags;
    std::unique_ptr<spmd::SpmdProgram> SP =
        spmd::parseSpmdProgram(S.Ref, Diags, S.Label + ".spmd");
    if (!SP)
      return "set-up output does not parse: " + Diags.str();
    SP->InPlaceRuntimeCheck = &core::checkInPlaceAtRuntime;
    rt::SessionOptions SO;
    SO.NumProcs = 4;
    std::string Err;
    std::optional<rt::Session> Sess = rt::resolveSession(*SP, SO, Err);
    if (!Sess)
      return Err;
    if (!Sess->Reg || !Sess->Canonical)
      return "not recognised as the canonical export";
    spmd::RunConfig RC = Sess->Config;
    RC.Engine = spmd::EngineKind::Tree;
    spmd::Interpreter I(*SP, RC);
    Sess->setup(*SP, I);
    spmd::RunResult R = I.run();
    if (!R.Valid)
      return "tree run invalid: " +
             (R.Violations.empty() ? "" : R.Violations.front());
    apps::AppInstance App = Sess->Reg->MakeCanonical();
    if (App.Check && !App.Check(I, Err))
      return "reference check failed: " + Err;
    return "";
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeCompileTable1(const Options &O,
                                                       Report &R) {
  return std::make_unique<CompileTable1>(O, R);
}
