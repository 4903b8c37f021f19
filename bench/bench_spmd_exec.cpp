//===- bench/bench_spmd_exec.cpp - SPMD execution-engine benchmark -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Measures the wall-clock time of executing the compiled Figure 7 codes
// under the tree-walking interpreter, the bytecode engine (ExecPlan.h),
// and the native engine (NativeGen.h: plans compiled to C kernels and
// dlopen'd through the fingerprint-keyed kernel cache), the two plan
// engines on one execution thread and on all hardware threads — the
// configuration `dhpfc run` and `dist-fig7` use. All engines produce
// bit-identical results (tests/spmd_exec_diff_test.cpp); this benchmark
// reports the price of interpretation and what the threads buy.
//
//   bench_spmd_exec [--quick] [--check] [--out=FILE] [--ref=FILE]
//
// Discipline: per engine, one discarded warm-up run (heats the allocator
// and, for native, absorbs the one-time kernel compilation so the timed
// runs measure the warm cache), then the minimum of two timed runs.
//
// --quick shrinks the problem sizes (CI mode), --out writes the JSON
// report (nothing is written without it). --check exits nonzero if an
// interpreted engine is slower than the tree, if native is slower than
// the tree, or if an engine regressed more than 15% against the --ref
// JSON (default BENCH_spmd_exec.json) — a real regression shows up both
// in absolute seconds and in the engine's ratio to the tree time from
// the same process, so both must trip before the check fails; that keeps
// it from firing on a machine that is merely slower than the one that
// produced the committed reference, or on quick-size runs compared
// against a full-size reference.
//
//===----------------------------------------------------------------------===//

#include "TableUtil.h"
#include "apps/Apps.h"
#include "core/Compiler.h"
#include "spmd/KernelCache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;
using namespace dhpf::spmd;

namespace {

struct Measurement {
  std::string Name;
  std::vector<int64_t> Procs;
  double TreeSecs = 0;
  double ByteSeqSecs = 0; ///< bytecode, 1 execution thread
  double ByteParSecs = 0; ///< bytecode, hardware threads
  double NativeSecs = 0;  ///< compiled kernels, 1 thread; 0 = no compiler
  double NativeParSecs = 0; ///< compiled kernels, hardware threads
  uint64_t StmtInstances = 0;
  uint64_t Messages = 0;
  uint64_t Bytes = 0;
  uint64_t SpanCopies = 0;
  uint64_t PackedCopies = 0;
  bool Valid = true;
};

/// Reference engine times for one app from a previously committed
/// BENCH_spmd_exec.json. Non-positive seconds mean the file, app, or key
/// was missing (native_s is legitimately 0 when the reference machine had
/// no C compiler).
struct RefTimes {
  double TreeSecs = -1.0;
  double ByteSeqSecs = -1.0;
  double NativeSecs = -1.0;
};

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// One timed execution, including engine setup: the bytecode engine
/// lowers the program at load time and the native engine additionally
/// emits + looks up its kernels; that cost is part of what is measured.
double timedRun(const CompileOutput &Compiled, const AppInstance &App,
                const std::vector<int64_t> &Procs, EngineKind Engine,
                unsigned Threads, Measurement &M) {
  RunConfig RC;
  RC.ProcExtents = {{App.ProcArrayName, Procs}};
  RC.Engine = Engine;
  RC.ExecThreads = Threads;
  double T0 = now();
  Interpreter I(Compiled.Program, RC);
  App.Setup(I);
  RunResult RR = I.run();
  double Secs = now() - T0;
  M.StmtInstances = RR.StmtInstances;
  M.Messages = RR.Messages;
  M.Bytes = RR.Bytes;
  M.SpanCopies = RR.SpanCopies;
  M.PackedCopies = RR.PackedCopies;
  M.Valid = M.Valid && RR.Valid;
  if (!RR.Valid)
    std::fprintf(stderr, "VALIDITY FAILURE %s: %s\n", App.Name.c_str(),
                 RR.Violations.empty() ? "?" : RR.Violations[0].c_str());
  return Secs;
}

Measurement benchApp(AppInstance App, const std::vector<int64_t> &Procs) {
  auto Compiled = compileProgram(*App.Prog);
  Measurement M;
  M.Name = App.Name;
  M.Procs = Procs;
  // Warm-up + min-of-2: the discarded first run heats the allocator (and,
  // for native, pays the one-shot cc invocation so the timed runs hit the
  // warm kernel cache); the minimum of the two timed runs damps noise.
  auto Best = [&](EngineKind E, unsigned Threads) {
    timedRun(*Compiled, App, Procs, E, Threads, M);
    double B = timedRun(*Compiled, App, Procs, E, Threads, M);
    return std::min(B, timedRun(*Compiled, App, Procs, E, Threads, M));
  };
  M.TreeSecs = Best(EngineKind::Tree, 1);
  M.ByteSeqSecs = Best(EngineKind::Bytecode, 1);
  M.ByteParSecs = Best(EngineKind::Bytecode, 0); // auto: hardware threads
  if (native::KernelCache::global().compilerAvailable()) {
    M.NativeSecs = Best(EngineKind::Native, 1);
    M.NativeParSecs = Best(EngineKind::Native, 0);
  }
  return M;
}

void writeJson(const char *Path, const std::vector<Measurement> &Ms) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(F, "{\n  \"bench\": \"spmd_exec\",\n");
  bench::writeMachineStamp(F);
  std::fprintf(F, "  \"apps\": [\n");
  for (size_t I = 0; I != Ms.size(); ++I) {
    const Measurement &M = Ms[I];
    std::fprintf(F, "    {\n      \"name\": \"%s\",\n      \"procs\": [",
                 M.Name.c_str());
    for (size_t P = 0; P != M.Procs.size(); ++P)
      std::fprintf(F, "%s%lld", P ? ", " : "",
                   static_cast<long long>(M.Procs[P]));
    std::fprintf(F, "],\n");
    std::fprintf(F, "      \"tree_s\": %.6f,\n", M.TreeSecs);
    std::fprintf(F, "      \"bytecode_seq_s\": %.6f,\n", M.ByteSeqSecs);
    std::fprintf(F, "      \"bytecode_par_s\": %.6f,\n", M.ByteParSecs);
    std::fprintf(F, "      \"native_s\": %.6f,\n", M.NativeSecs);
    std::fprintf(F, "      \"native_par_s\": %.6f,\n", M.NativeParSecs);
    std::fprintf(F, "      \"speedup_seq\": %.3f,\n",
                 M.ByteSeqSecs > 0 ? M.TreeSecs / M.ByteSeqSecs : 0.0);
    std::fprintf(F, "      \"speedup_par\": %.3f,\n",
                 M.ByteParSecs > 0 ? M.TreeSecs / M.ByteParSecs : 0.0);
    std::fprintf(F, "      \"speedup_native\": %.3f,\n",
                 M.NativeSecs > 0 ? M.TreeSecs / M.NativeSecs : 0.0);
    std::fprintf(F, "      \"speedup_native_par\": %.3f,\n",
                 M.NativeParSecs > 0 ? M.TreeSecs / M.NativeParSecs : 0.0);
    std::fprintf(F, "      \"stmt_instances\": %llu,\n",
                 static_cast<unsigned long long>(M.StmtInstances));
    std::fprintf(F, "      \"messages\": %llu,\n",
                 static_cast<unsigned long long>(M.Messages));
    std::fprintf(F, "      \"bytes\": %llu,\n",
                 static_cast<unsigned long long>(M.Bytes));
    std::fprintf(F, "      \"span_copies\": %llu,\n",
                 static_cast<unsigned long long>(M.SpanCopies));
    std::fprintf(F, "      \"packed_copies\": %llu,\n",
                 static_cast<unsigned long long>(M.PackedCopies));
    std::fprintf(F, "      \"valid\": %s\n    }%s\n", M.Valid ? "true"
                                                             : "false",
                 I + 1 != Ms.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
}

RefTimes readRef(const std::string &Text, const std::string &App) {
  RefTimes R;
  size_t Subj = Text.find("\"name\": \"" + App + "\"");
  if (Subj == std::string::npos)
    return R;
  auto Field = [&](const char *Key) {
    size_t K = Text.find(std::string("\"") + Key + "\": ", Subj);
    return K == std::string::npos
               ? -1.0
               : std::atof(Text.c_str() + K + std::strlen(Key) + 4);
  };
  R.TreeSecs = Field("tree_s");
  R.ByteSeqSecs = Field("bytecode_seq_s");
  R.NativeSecs = Field("native_s");
  return R;
}

/// True when \p Secs regressed more than 15% against \p RefSecs both in
/// absolute terms and relative to the tree time measured alongside each.
bool regressed(double Secs, double TreeSecs, double RefSecs,
               double RefTreeSecs) {
  if (RefSecs <= 0 || RefTreeSecs <= 0 || TreeSecs <= 0)
    return false;
  return Secs > RefSecs * 1.15 &&
         Secs / TreeSecs > (RefSecs / RefTreeSecs) * 1.15;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false, Check = false;
  const char *Out = nullptr;
  const char *Ref = "BENCH_spmd_exec.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(argv[I], "--check") == 0)
      Check = true;
    else if (std::strncmp(argv[I], "--out=", 6) == 0)
      Out = argv[I] + 6;
    else if (std::strncmp(argv[I], "--ref=", 6) == 0)
      Ref = argv[I] + 6;
  }
  // Read the reference before any writes in case --out aliases --ref.
  std::string RefText = Check ? bench::slurpFile(Ref) : std::string();
  if (Check && RefText.empty())
    std::fprintf(stderr, "warning: no reference %s; regression check "
                         "limited to engine ordering\n",
                 Ref);
  bench::noteRefMachine(RefText, Ref);

  bool HaveCc = native::KernelCache::global().compilerAvailable();
  std::printf("== SPMD execution engines: tree vs bytecode vs native ==\n");
  if (!HaveCc)
    std::printf("(no usable C compiler: native column omitted)\n");

  std::vector<Measurement> Ms;
  if (Quick) {
    Ms.push_back(benchApp(makeJacobi(96, 4), {2, 2}));
    Ms.push_back(benchApp(makeTomcatv(98, 3), {4}));
    Ms.push_back(benchApp(makeErlebacher(24, 2), {4}));
    Ms.push_back(benchApp(makeGauss(48), {2, 2}));
  } else {
    Ms.push_back(benchApp(makeJacobi(256, 5), {2, 2}));
    Ms.push_back(benchApp(makeTomcatv(258, 3), {4}));
    Ms.push_back(benchApp(makeErlebacher(48, 2), {4}));
    Ms.push_back(benchApp(makeGauss(96), {2, 2}));
  }

  std::printf("  %-14s | %10s | %12s | %12s | %10s | %11s | %7s | %7s | "
              "%7s | %9s\n",
              "app", "tree", "bytecode(1t)", "bytecode(par)", "native",
              "native(par)", "x (1t)", "x (par)", "x (nat)", "x (natpar)");
  bool Ok = true;
  for (const Measurement &M : Ms) {
    std::printf("  %-14s | %9.3fs | %11.3fs | %12.3fs | %9.3fs | %10.3fs | "
                "%6.2fx | %6.2fx | %6.2fx | %8.2fx\n",
                M.Name.c_str(), M.TreeSecs, M.ByteSeqSecs, M.ByteParSecs,
                M.NativeSecs, M.NativeParSecs, M.TreeSecs / M.ByteSeqSecs,
                M.TreeSecs / M.ByteParSecs,
                M.NativeSecs > 0 ? M.TreeSecs / M.NativeSecs : 0.0,
                M.NativeParSecs > 0 ? M.TreeSecs / M.NativeParSecs : 0.0);
    if (!M.Valid)
      Ok = false;
    if (!Check)
      continue;
    if (M.ByteParSecs > M.TreeSecs && M.ByteSeqSecs > M.TreeSecs) {
      std::fprintf(stderr, "CHECK FAILURE: bytecode slower than tree on "
                           "%s\n",
                   M.Name.c_str());
      Ok = false;
    }
    if (M.NativeSecs > 0 && M.NativeSecs > M.TreeSecs) {
      std::fprintf(stderr, "CHECK FAILURE: native slower than tree on "
                           "%s\n",
                   M.Name.c_str());
      Ok = false;
    }
    RefTimes R = readRef(RefText, M.Name);
    if (regressed(M.ByteSeqSecs, M.TreeSecs, R.ByteSeqSecs, R.TreeSecs)) {
      std::fprintf(stderr,
                   "CHECK FAILURE: bytecode(1t) regressed >15%% on %s "
                   "(%.3fs vs %.3fs reference)\n",
                   M.Name.c_str(), M.ByteSeqSecs, R.ByteSeqSecs);
      Ok = false;
    }
    if (M.NativeSecs > 0 &&
        regressed(M.NativeSecs, M.TreeSecs, R.NativeSecs, R.TreeSecs)) {
      std::fprintf(stderr,
                   "CHECK FAILURE: native regressed >15%% on %s "
                   "(%.3fs vs %.3fs reference)\n",
                   M.Name.c_str(), M.NativeSecs, R.NativeSecs);
      Ok = false;
    }
  }
  if (Out) {
    writeJson(Out, Ms);
    std::printf("wrote %s\n", Out);
  }
  return Ok ? 0 : 1;
}
