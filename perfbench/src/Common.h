//===- perfbench/src/Common.h - Shared benchmark plumbing ----------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the run options,
/// the metric report (value, unit, sample count), statistics, child-process
/// helpers timed from outside, and the span analysis that turns Chrome
/// trace documents into per-layer busy and self times.
///
/// The benchmark never adds probes to the program: it times calls into the
/// public functions of each layer, wraps them in spans of its own, and
/// reads the spans and counters the program already emits.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "obs/Trace.h"

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory holding the dhpf_rt, dhpfd and dhpfc binaries.
  std::string BinDir;
  /// Run only the workload's set-up and print its duration (the extra
  /// set-up samples behind setup_s run in fresh child processes).
  bool SetupOnly = false;
  /// Set-up repetitions behind setup_s (this process's own set-up plus
  /// SetupSamples - 1 fresh child processes).
  unsigned SetupSamples = 3;
  /// Tiny inputs for the self-test.
  bool Smoke = false;
  /// Self-test hooks: corrupt the wire of one timed launch, or flip one
  /// bit of the workload's oracle. Both must surface as failed operations.
  std::string InjectFault;
  bool TamperOracle = false;
};

/// Seconds on the steady clock.
double nowS();

double median(std::vector<double> V);
/// Linear-interpolation quantile (\p Q in [0,1]); 0 for an empty input.
double quantile(std::vector<double> V, double Q);

/// Latencies of the operations of a workload whose passes each repeat one
/// fixed set of operation kinds (a launch of jacobi, a cold compile of
/// sp-sym, ...).
class OpLatencies {
public:
  void add(const std::string &Kind, double Seconds);
  /// Publishes req_ms.p50 / req_ms.p90 — quantiles over operation kinds,
  /// each kind at its median latency, so every kind counts once however
  /// its few samples scatter — and req_per_s, operations per second of
  /// operation time.
  void publish(class Report &R) const;

private:
  std::map<std::string, std::vector<double>> ByKind;
  size_t N = 0;
  double TotalS = 0;
};

/// One field of every pass, as the input of a median over passes.
template <typename PassT, typename Fn>
std::vector<double> column(const std::vector<PassT> &Passes, Fn Get) {
  std::vector<double> Out;
  for (const PassT &P : Passes)
    Out.push_back(static_cast<double>(Get(P)));
  return Out;
}

/// Passes a fixed-set workload runs for --seconds: a budget calibrated on
/// a 4-core machine, so both sides of a comparison do the same work.
unsigned passesFor(double Seconds, double PassSeconds);
/// True once a measurement that began at \p T0 has run for twice its
/// --seconds: a machine much slower than the calibration one stops early
/// rather than overrun the run's time limit.
inline bool overBudget(double T0, double Seconds) {
  return nowS() - T0 >= 2 * Seconds;
}

/// Every metric a run reports: its value, unit and sample count, plus the
/// operation tally and the stamps that identify the run.
class Report {
public:
  void set(const std::string &Name, double Value, const std::string &Unit,
           size_t N);
  void stamp(const std::string &Key, const std::string &Value);
  /// Counts one attempted operation, failed when \p Why is non-empty.
  void op(const std::string &Why);
  /// A failure outside any counted operation (set-up, teardown, oracle).
  void fail(const std::string &Why);
  uint64_t failed() const { return Failed; }
  /// One JSON object: correct/attempted/failed, metrics with unit and n,
  /// stamps and the first failure diagnostics.
  std::string json() const;

private:
  struct Metric {
    double Value;
    std::string Unit;
    size_t N;
  };
  std::map<std::string, Metric> Metrics;
  std::map<std::string, std::string> Stamps;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0, Failed = 0;
  bool Broken = false;
};

/// A deterministic generator for everything a workload derives from --seed.
using Rng = std::mt19937_64;

bool writeFile(const std::string &Path, const std::string &Data);
bool readFile(const std::string &Path, std::string &Out);
bool makeDir(const std::string &Path);
/// Removes \p Path and everything below it.
void removeTree(const std::string &Path);
std::vector<std::string> listDir(const std::string &Path);

struct ProcResult {
  bool Ok = false; ///< exited with status 0
  double Seconds = 0;
  std::string Output; ///< stdout and stderr, interleaved
};

/// Runs \p Argv to completion, timed from fork to reap, capturing its
/// output. \p Env entries ("K=V", or "K" to unset) adjust the child's
/// environment; a non-empty \p Cwd is its working directory.
ProcResult runProcess(const std::vector<std::string> &Argv,
                      const std::vector<std::string> &Env = {},
                      const std::string &Cwd = "");

/// A long-lived child process (the dhpfd daemon): started detached from
/// our stdout, always reaped — killed first if it is still running when
/// the owner goes away.
class ChildProcess {
public:
  ChildProcess(const std::vector<std::string> &Argv,
               const std::vector<std::string> &Env,
               const std::string &LogPath);
  ~ChildProcess();
  ChildProcess(const ChildProcess &) = delete;
  ChildProcess &operator=(const ChildProcess &) = delete;

  bool started() const { return Pid > 0; }
  /// Waits up to \p TimeoutS for a normal exit, then kills. True when the
  /// process exited with status 0 on its own.
  bool wait(double TimeoutS);

private:
  int Pid = -1;
};

/// Peak resident set of this process and of its largest reaped child.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Span analysis
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  uint64_t TsUs = 0;
  uint64_t DurUs = 0;
  uint32_t Tid = 0;
};

/// The complete ("X") events of one Chrome trace document.
std::vector<Span> parseChromeTrace(const std::string &Doc);
std::vector<Span> spansOf(const std::vector<dhpf::obs::TraceEvent> &Events);

/// Busy and self time per span name, in seconds. A span's self time is its
/// duration minus the part covered by its child spans (same thread).
struct SpanTimes {
  std::map<std::string, double> Busy, Self;
  /// Summed busy time of every name starting with \p Prefix.
  double busy(const std::string &Prefix) const;
  double self(const std::string &Prefix) const;
};
SpanTimes spanTimes(const std::vector<Span> &Spans);

/// The compile-layer split of the compiles one pass performs in-process.
struct CompileLayers {
  // Busy seconds of the spans recorded during the pass (takeSpans).
  double Parse = 0, Serialize = 0, SpmdParse = 0;
  std::map<std::string, double> PassS; ///< `pass:<name>` spans
  // Table 1 rows of CompileOutput::Timers, seconds.
  double CommEq = 0, MMCodegen = 0;
  // CompileOutput counts (exact); ColdMisses is filled by the caller from
  // the metrics report of cold `dhpfc` processes.
  uint64_t Hits = 0, Misses = 0, InternLookups = 0, InternHits = 0,
           ColdMisses = 0, CommEvents = 0, Contiguous = 0;

  /// Compiles \p Source the way core::CompilerService does — hpf parse,
  /// the CompilerDriver pass pipeline, .spmd serialization — each call in a
  /// span of ours, then reparses the .spmd as every consumer of the
  /// artifact does. Returns the .spmd, or "" with \p Err set; \p Seconds
  /// is the compile itself (parse to serialize).
  std::string compile(const std::string &Name, const std::string &Source,
                      double &Seconds, std::string &Err);
  void takeSpans(const SpanTimes &T);
};

/// Publishes the compile-layer metrics: times as medians over \p Passes,
/// counts from the last pass.
void publishCompileLayers(Report &R, const std::vector<CompileLayers> &Passes);

/// The compile subjects of compile-table1 and daemon-mix as (label, .hpf
/// text): sp-sym and SP-4 — the Table 1 subjects, 30 procedures (3 at
/// smoke size) — then the four canonical Figure 7 programs.
std::vector<std::pair<std::string, std::string>> compileSubjects(bool Smoke);

/// The integer value of `Name <value>` in a metrics text report, or 0.
uint64_t metricValue(const std::string &Text, const std::string &Name);

/// A span the benchmark owns around one call into a layer; inert unless
/// the process-global trace buffer is recording.
inline dhpf::obs::TraceSpan benchSpan(const std::string &Name) {
  return dhpf::obs::TraceSpan(&dhpf::obs::TraceBuffer::global(), Name,
                              "perfbench");
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One named workload. main() times setup() (setup_s), then calls
/// prepareOracle() outside any timing, then measure() for the run length,
/// then finish() to publish the metrics.
class Workload {
public:
  Workload(const Options &O, Report &R) : Opts(O), Rep(R) {}
  virtual ~Workload() = default;

  /// Everything before the first timed operation. \p Traced records the
  /// set-up's spans for the per-layer split.
  virtual void setup(bool Traced) = 0;
  virtual void prepareOracle() = 0;
  /// Runs timed operations for about \p Seconds. \p Traced turns on the
  /// benchmark's spans and the program's trace collection.
  virtual void measure(double Seconds, bool Traced) = 0;
  /// Publishes the end-to-end metrics (\p TraceRun false) or the
  /// per-layer metrics (\p TraceRun true).
  virtual void finish(bool TraceRun) = 0;
  /// Stops every process the workload started.
  virtual void teardown() {}

protected:
  const Options &Opts;
  Report &Rep;
};

std::unique_ptr<Workload> makeDistFig7(const Options &O, Report &R);
std::unique_ptr<Workload> makeCompileTable1(const Options &O, Report &R);
std::unique_ptr<Workload> makeDaemonMix(const Options &O, Report &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
