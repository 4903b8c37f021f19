//===- tools/dhpfc/dhpfc.cpp - The dHPF command-line driver ---------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the whole pipeline, driving each stage from
/// files so compilation and execution can run in separate processes:
///
///   dhpfc compile prog.hpf -o prog.spmd   parse + analyze + emit + serialize
///   dhpfc run prog.spmd -p 4              parse .spmd + simulate + verify;
///                                         an .hpf is compiled first and
///                                         run from its serialized form
///   dhpfc launch prog.spmd -p 4           the same across rank processes
///   dhpfc export [-d DIR]                 write the Figure 7 benchmarks
///                                         as .hpf text
///   dhpfc list                            show the registered benchmarks
///
/// All malformed input is rejected with file:line:col diagnostics; the exit
/// code is 0 on success, 1 on any diagnostic / validity violation / failed
/// reference check, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "apps/Registry.h"
#include "core/Compiler.h"
#include "core/CompilerService.h"
#include "hpf/HpfPrinter.h"
#include "net/Server.h"
#include "obs/Trace.h"
#include "pset/OpCache.h"
#include "rt/Daemon.h"
#include "rt/Launch.h"
#include "rt/Session.h"
#include "spmd/Interp.h"
#include "spmd/KernelCache.h"
#include "spmd/Layout.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace dhpf;

namespace {

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0 << " <command> [options]\n"
      << "\n"
      << "commands:\n"
      << "  compile <prog.hpf> [-o <out.spmd>]   compile to a serialized "
         "SPMD program\n"
      << "  run <prog.spmd|.hpf> [-p N]          execute a program (an .hpf "
         "is compiled first)\n"
      << "  launch <prog.spmd|.hpf> [-p N]       execute across N rank "
         "processes over sockets\n"
      << "  export [-d <dir>]                    write the benchmark "
         "programs as .hpf\n"
      << "  list                                 list registered "
         "benchmarks\n"
      << "  stats --server=<sock>                print a running daemon's "
         "statistics\n"
      << "  shutdown --server=<sock>             stop a running daemon\n"
      << "\n"
      << "client options (compile, run, and launch's compile of an "
         ".hpf):\n"
      << "  --server=<sock>      send the request to the dhpfd daemon on "
         "this socket\n"
      << "                       instead of compiling/running in-process\n"
      << "\n"
      << "compile options:\n"
      << "  -o <file>            output path ('-' = stdout; default: input "
         "with .spmd)\n"
      << "  -dump-after=<pass>   dump IR after pass(es); comma list or "
         "'all'\n"
      << "  --no-split           disable loop splitting (Figure 4)\n"
      << "  --no-coalesce        disable communication coalescing\n"
      << "  --no-inplace         disable in-place (contiguity) analysis\n"
      << "  --threads=<n>        analysis and execution worker threads (0 = "
         "hardware,\n"
      << "                       1 = sequential)\n"
      << "  --stats              print compile statistics and phase times\n"
      << "\n"
      << "run options:\n"
      << "  -p <n>               total processors (default 4)\n"
      << "  --procs=<a,b,..>     explicit processor-array extents\n"
      << "  --engine=<e>         tree | bytecode | native | auto (default "
         "auto)\n"
      << "  --param=<name=val>   bind a program parameter\n"
      << "  --no-check           skip the serial reference check\n"
      << "  --stats              print message/byte/statement counts\n"
      << "\n"
      << "launch options (plus the run options above):\n"
      << "  --rt-bin=<path>      dhpf_rt binary (default: next to dhpfc)\n"
      << "  --hosts=<spec|auto>  TCP transport: host:port-per-rank spec "
         "file, or 'auto'\n"
      << "                       to reserve loopback ports (default: unix "
         "sockets)\n"
      << "  --timeout-ms=<n>     per-launch deadline (default 60000)\n"
      << "  --keep-mesh          keep the mesh/result directory for "
         "debugging\n"
      << "\n"
      << "profiling options (all commands):\n"
      << "  --trace=<file>       write a Chrome trace (chrome://tracing "
         "JSON); under\n"
      << "                       launch, per-rank lanes are merged in\n"
      << "  --metrics=<file>     write the metrics registry report "
         "(.json = JSON,\n"
      << "                       else flat text)\n"
      << "\n"
      << "  --version            print version, build type, engines, and "
         "transports\n";
  return 2;
}

#ifndef DHPF_GIT_DESC
#define DHPF_GIT_DESC "unknown"
#endif
#ifndef DHPF_BUILD_TYPE
#define DHPF_BUILD_TYPE "unknown"
#endif

int printVersion() {
  spmd::native::KernelCache &KC = spmd::native::KernelCache::global();
  std::string Dir = spmd::native::KernelCache::resolvedDir();
  std::cout << "dhpfc " << DHPF_GIT_DESC << " (build " << DHPF_BUILD_TYPE
            << ")\n"
            << "  engines:    tree bytecode native";
  if (KC.compilerAvailable())
    std::cout << " (" << KC.compilerVersion() << ")";
  else
    std::cout << " (no C compiler: '"
              << spmd::native::KernelCache::compilerCommand()
              << "' unusable; native falls back to bytecode)";
  std::cout << "\n"
            << "  transports: loopback unix-socket tcp\n"
            << "  kernel cache: "
            << (Dir.empty() ? "disabled (in-memory only)" : Dir) << "\n";
  return 0;
}

bool readFile(const std::string &Path, std::string &Out, std::string &Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Err = "cannot open '" + Path + "' for reading";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Text,
               std::string &Err) {
  if (Path == "-") {
    std::cout << Text;
    return true;
  }
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  Out << Text;
  Out.flush();
  if (!Out) {
    Err = "error writing '" + Path + "'";
    return false;
  }
  return true;
}

void flushDiags(DiagnosticEngine &Diags) {
  if (!Diags.empty())
    std::cerr << Diags.str();
  Diags.clear();
}

struct CliOptions {
  std::string Input;
  std::string Output;
  std::string DumpAfter;
  std::string Engine;
  std::string ExportDir = ".";
  int64_t NumProcs = 4;
  std::vector<int64_t> ProcShape; ///< --procs override; empty = derive
  std::map<std::string, int64_t> Params;
  bool NoSplit = false;
  bool NoCoalesce = false;
  bool NoInPlace = false;
  unsigned Threads = 0; ///< --threads: analysis and execution workers
  bool Stats = false;
  bool NoCheck = false;
  std::string Server;  ///< --server= daemon socket (empty = in-process)
  std::string RtBin;   ///< --rt-bin override for launch
  std::string Hosts;   ///< --hosts= TCP rank spec ('auto' = loopback)
  int TimeoutMs = 0;   ///< --timeout-ms launch deadline (0 = default)
  bool KeepMesh = false;
  std::string TracePath;   ///< --trace= (or DHPF_TRACE)
  std::string MetricsPath; ///< --metrics= (or DHPF_METRICS)
};

/// Trace documents beyond the driver's own buffer (the per-rank traces a
/// launch collected), merged into the --trace output at exit.
std::vector<std::string> &extraTraceDocs() {
  static std::vector<std::string> Docs;
  return Docs;
}

/// Parses everything after the subcommand. Returns false (after printing
/// the offending option) on a usage error.
bool parseArgs(int Argc, char **Argv, CliOptions &O) {
  auto Value = [](const std::string &A, const char *Pfx,
                  std::string &Out) -> bool {
    std::string P(Pfx);
    if (A.rfind(P, 0) != 0)
      return false;
    Out = A.substr(P.size());
    return true;
  };
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string V, Err;
    if (A == "-o" || A == "-p" || A == "-d") {
      if (I + 1 >= Argc) {
        std::cerr << "dhpfc: " << A << " requires a value\n";
        return false;
      }
      V = Argv[++I];
      if (A == "-o")
        O.Output = V;
      else if (A == "-d")
        O.ExportDir = V;
      else if (!rt::parseIntArg(V, 1, O.NumProcs)) {
        std::cerr << "dhpfc: invalid processor count '" << V << "'\n";
        return false;
      }
    } else if (Value(A, "-dump-after=", V) ||
               Value(A, "--dump-after=", V)) {
      O.DumpAfter = V;
    } else if (Value(A, "--engine=", V)) {
      O.Engine = V;
    } else if (Value(A, "--server=", V)) {
      O.Server = V;
    } else if (Value(A, "--threads=", V)) {
      int64_t N;
      if (!rt::parseIntArg(V, 0, N)) {
        std::cerr << "dhpfc: invalid thread count '" << V << "'\n";
        return false;
      }
      O.Threads = static_cast<unsigned>(N);
    } else if (Value(A, "--procs=", V)) {
      if (!rt::parseProcsArg(V, O.ProcShape, Err)) {
        std::cerr << "dhpfc: " << Err << "\n";
        return false;
      }
    } else if (Value(A, "--param=", V)) {
      if (!rt::parseParamArg(V, O.Params, Err)) {
        std::cerr << "dhpfc: " << Err << "\n";
        return false;
      }
    } else if (Value(A, "--rt-bin=", V)) {
      O.RtBin = V;
    } else if (Value(A, "--hosts=", V)) {
      O.Hosts = V;
    } else if (Value(A, "--timeout-ms=", V)) {
      int64_t N;
      if (!rt::parseIntArg(V, 1, N)) {
        std::cerr << "dhpfc: invalid --timeout-ms '" << V << "'\n";
        return false;
      }
      O.TimeoutMs = static_cast<int>(N);
    } else if (Value(A, "--trace=", V)) {
      O.TracePath = V;
    } else if (Value(A, "--metrics=", V)) {
      O.MetricsPath = V;
    } else if (A == "--keep-mesh") {
      O.KeepMesh = true;
    } else if (A == "--no-split") {
      O.NoSplit = true;
    } else if (A == "--no-coalesce") {
      O.NoCoalesce = true;
    } else if (A == "--no-inplace") {
      O.NoInPlace = true;
    } else if (A == "--stats") {
      O.Stats = true;
    } else if (A == "--no-check") {
      O.NoCheck = true;
    } else if (!A.empty() && A[0] == '-') {
      std::cerr << "dhpfc: unknown option '" << A << "'\n";
      return false;
    } else if (O.Input.empty()) {
      O.Input = A;
    } else {
      std::cerr << "dhpfc: unexpected argument '" << A << "'\n";
      return false;
    }
  }
  return true;
}

core::CompilerOptions compilerOptions(const CliOptions &O) {
  core::CompilerOptions CO;
  CO.LoopSplitting = !O.NoSplit;
  CO.Coalescing = !O.NoCoalesce;
  CO.InPlaceAnalysis = !O.NoInPlace;
  CO.AnalysisThreads = O.Threads;
  CO.DumpAfter = O.DumpAfter;
  return CO;
}

/// Connects to --server's daemon; prints and rethrows nothing — a
/// connection failure is reported and null returned.
std::unique_ptr<net::MsgStream> connectServer(const CliOptions &O) {
  try {
    return net::connectClient(O.Server);
  } catch (const net::TransportError &E) {
    std::cerr << "dhpfc: " << E.what() << "\n";
    return nullptr;
  }
}

/// Compiles one .hpf file through the compiler service — in-process via
/// CompilerService::global() by default, or on the dhpfd daemon with
/// --server=. Both paths produce byte-identical serialized programs, in
/// \p Spmd. Returns false with diagnostics already printed on any error.
bool compileViaService(const std::string &Path, const CliOptions &O,
                       std::string &Spmd) {
  std::string Text, Err;
  if (!readFile(Path, Text, Err)) {
    std::cerr << "dhpfc: " << Err << "\n";
    return false;
  }
  if (!O.Server.empty()) {
    std::unique_ptr<net::MsgStream> Stream = connectServer(O);
    if (!Stream)
      return false;
    try {
      rt::DaemonCompileResult R =
          rt::daemonCompile(*Stream, Path, Text, compilerOptions(O));
      if (!R.DiagText.empty())
        std::cerr << R.DiagText;
      if (!R.Ok)
        return false;
      if (O.Stats) {
        std::cout << "compiled '" << R.ProgName << "' (" << Path
                  << ") on daemon " << O.Server << ", served " << R.Served
                  << "\n"
                  << R.StatsText;
      }
      Spmd = std::move(R.Spmd);
      return true;
    } catch (const net::TransportError &E) {
      std::cerr << "dhpfc: " << E.what() << "\n";
      return false;
    }
  }
  core::CompileRequest R;
  R.Name = Path;
  R.Source = std::move(Text);
  R.Opts = compilerOptions(O);
  std::shared_ptr<const core::CompileArtifact> A =
      core::CompilerService::global().compile(R);
  if (!A->DiagText.empty())
    std::cerr << A->DiagText;
  if (!A->Ok)
    return false;
  if (O.Stats) {
    std::cout << "compiled '" << A->ProgName << "' (" << Path << ")\n"
              << A->StatsText;
  }
  Spmd = A->Spmd;
  return true;
}

bool isHpf(const std::string &Path) {
  return Path.size() > 4 && Path.compare(Path.size() - 4, 4, ".hpf") == 0;
}

/// The serialized program `run` and `launch` execute: the input .spmd
/// file, or an .hpf input compiled through the service. Returns false
/// with diagnostics already printed on any error.
bool loadSpmd(const CliOptions &O, std::string &Spmd) {
  if (isHpf(O.Input))
    return compileViaService(O.Input, O, Spmd);
  std::string Err;
  if (readFile(O.Input, Spmd, Err))
    return true;
  std::cerr << "dhpfc: " << Err << "\n";
  return false;
}

/// Reparses a serialized program for in-process execution.
std::unique_ptr<spmd::SpmdProgram> reparseSpmd(const std::string &Text,
                                               const std::string &Name) {
  DiagnosticEngine Diags;
  std::unique_ptr<spmd::SpmdProgram> SP =
      spmd::parseSpmdProgram(Text, Diags, Name);
  flushDiags(Diags);
  return SP;
}

bool parseEngine(const std::string &S, spmd::EngineKind &Out) {
  if (S.empty() || S == "auto")
    Out = spmd::EngineKind::Auto;
  else if (S == "tree")
    Out = spmd::EngineKind::Tree;
  else if (S == "bytecode")
    Out = spmd::EngineKind::Bytecode;
  else if (S == "native")
    Out = spmd::EngineKind::Native;
  else
    return false;
  return true;
}

const char *engineName(spmd::EngineKind E) {
  switch (spmd::Interpreter::resolveEngine(E)) {
  case spmd::EngineKind::Tree:
    return "tree";
  case spmd::EngineKind::Native:
    return "native";
  default:
    return "bytecode";
  }
}

/// Materializes --engine into the environment, so the in-process engines
/// and — crucially — the rank processes a launch forks all resolve it
/// identically.
void applyEngineEnv(const CliOptions &O) {
  if (!O.Engine.empty() && O.Engine != "auto")
    ::setenv("DHPF_SPMD_ENGINE", O.Engine.c_str(), 1);
}

rt::SessionOptions sessionOptions(const CliOptions &O) {
  rt::SessionOptions SO;
  SO.NumProcs = O.NumProcs;
  SO.ProcShape = O.ProcShape;
  SO.Params = O.Params;
  return SO;
}

void printRunHeader(const rt::Session &S, const char *How) {
  int64_t TotalProcs = 1;
  for (int64_t E : S.Shape)
    TotalProcs *= E;
  std::cout << "ran '" << S.ProgName << "'";
  if (!S.Shape.empty()) {
    std::cout << " on " << TotalProcs << " procs (";
    for (size_t D = 0; D != S.Shape.size(); ++D)
      std::cout << (D ? "x" : "") << S.Shape[D];
    std::cout << ")";
  }
  std::cout << ", " << How << "\n";
}

/// \p TimeLabel names what \p Seconds measures: the simulated machine's
/// time in-process, the wall-clock time of a launch.
void printRunStats(const spmd::RunResult &RR, const char *TimeLabel,
                   double Seconds) {
  std::cout << "  " << TimeLabel << ": " << Seconds
            << " s, messages: " << RR.Messages << ", bytes: " << RR.Bytes
            << ", stmt instances: " << RR.StmtInstances << "\n";
  std::cout << "  span copies: " << RR.SpanCopies
            << ", packed copies: " << RR.PackedCopies
            << ", compute/comm overlap: " << RR.OverlapRatio << "\n";
  if (RR.CollMessages != 0)
    std::cout << "  collective frames: " << RR.CollMessages
              << ", collective bytes: " << RR.CollBytes << "\n";
  for (const auto &Acc : RR.FinalAccums)
    std::cout << "  accum " << Acc.first << " = " << Acc.second << "\n";
}

int reportInvalid(const spmd::RunResult &RR) {
  std::cerr << "dhpfc: run INVALID (" << RR.Violations.size()
            << " recorded violations)\n";
  for (const std::string &V : RR.Violations)
    std::cerr << "  " << V << "\n";
  return 1;
}

/// Executes an SPMD program in-process (`run`). Returns the process exit
/// code.
int runProgram(const spmd::SpmdProgram &SP, const CliOptions &O) {
  std::string Err;
  std::optional<rt::Session> S = rt::resolveSession(SP, sessionOptions(O), Err);
  if (!S) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 2;
  }
  spmd::RunConfig RC = S->Config;
  RC.ExecThreads = O.Threads;
  if (!parseEngine(O.Engine, RC.Engine)) {
    std::cerr << "dhpfc: unknown engine '" << O.Engine
              << "' (want tree|bytecode|native|auto)\n";
    return 2;
  }
  applyEngineEnv(O);

  spmd::Interpreter I(SP, RC);
  S->setup(SP, I);
  spmd::RunResult RR = I.run();

  printRunHeader(*S, (std::string("engine ") + engineName(RC.Engine)).c_str());
  if (O.Stats)
    printRunStats(RR, "simulated time", RR.SimSeconds);
  if (!RR.Valid)
    return reportInvalid(RR);
  if (!O.NoCheck) {
    if (S->Reg && S->Canonical) {
      apps::AppInstance App = S->Reg->MakeCanonical();
      if (App.Check) {
        std::string CheckErr;
        if (!App.Check(I, CheckErr)) {
          std::cerr << "dhpfc: reference check FAILED: " << CheckErr << "\n";
          return 1;
        }
        std::cout << "reference check: OK\n";
      }
    } else if (S->Reg) {
      std::cout << "note: program differs from the canonical '"
                << S->ProgName << "' export; reference check skipped\n";
    }
  }
  return 0;
}

/// Bitwise comparison of a distributed run against an in-process engine
/// run of the same session. Returns a description of the first mismatch,
/// empty on agreement. Simulated time (ranks run on real time and report
/// none) and the overlap ratio (a real measurement) are excluded.
std::string compareRuns(const rt::MergedRun &Dist, const spmd::RunResult &Ref,
                        const spmd::Interpreter &I) {
  auto Num = [](const char *What, uint64_t A, uint64_t B) {
    return std::string(What) + ": distributed " + std::to_string(A) +
           " vs in-process " + std::to_string(B);
  };
  if (Dist.R.Messages != Ref.Messages)
    return Num("messages", Dist.R.Messages, Ref.Messages);
  if (Dist.R.Bytes != Ref.Bytes)
    return Num("bytes", Dist.R.Bytes, Ref.Bytes);
  if (Dist.R.SpanCopies != Ref.SpanCopies)
    return Num("span copies", Dist.R.SpanCopies, Ref.SpanCopies);
  if (Dist.R.PackedCopies != Ref.PackedCopies)
    return Num("packed copies", Dist.R.PackedCopies, Ref.PackedCopies);
  if (Dist.R.StmtInstances != Ref.StmtInstances)
    return Num("stmt instances", Dist.R.StmtInstances, Ref.StmtInstances);
  if (Dist.R.Valid != Ref.Valid)
    return "validity verdicts differ";
  if (Dist.R.FinalAccums.size() != Ref.FinalAccums.size())
    return "accumulator sets differ";
  for (const auto &[Name, V] : Ref.FinalAccums) {
    auto It = Dist.R.FinalAccums.find(Name);
    if (It == Dist.R.FinalAccums.end())
      return "accumulator '" + Name + "' missing from distributed run";
    if (std::memcmp(&It->second, &V, sizeof(double)) != 0)
      return "accumulator '" + Name + "' bits differ";
  }
  for (const auto &[Name, A] : Dist.Arrays) {
    const spmd::ArrayStore &B = I.array(Name);
    if (A.size() != B.size())
      return "array '" + Name + "' sizes differ";
    if (std::memcmp(A.values().data(), B.values().data(),
                    A.size() * sizeof(double)) != 0) {
      for (size_t F = 0; F != A.size(); ++F)
        if (std::memcmp(&A.values()[F], &B.values()[F], sizeof(double)) != 0)
          return "array '" + Name + "' differs first at flat " +
                 std::to_string(F);
    }
  }
  return "";
}

/// `dhpfc launch`: run the program across real rank processes over the
/// socket mesh, then (unless --no-check) re-run in-process and demand
/// bit-identical results.
int cmdLaunch(const CliOptions &O, const char *Argv0) {
  spmd::EngineKind EK;
  if (!parseEngine(O.Engine, EK)) {
    std::cerr << "dhpfc: unknown engine '" << O.Engine
              << "' (want tree|bytecode|native|auto)\n";
    return 2;
  }
  // Before any fork: the rank processes must resolve the same engine as
  // the in-process oracle below.
  applyEngineEnv(O);
  std::string Spmd, Err;
  if (!loadSpmd(O, Spmd))
    return 1;
  // A compiled .hpf is serialized to a temp file the rank processes load.
  // The guard is armed the moment the temp file exists, so every return
  // below — parse failure, session failure, launch failure — removes it.
  struct TempFileGuard {
    std::string Path;
    ~TempFileGuard() {
      if (!Path.empty())
        ::unlink(Path.c_str());
    }
  } Guard;
  std::string SpmdPath = O.Input;
  if (isHpf(O.Input)) {
    const char *Tmp = std::getenv("TMPDIR");
    std::string TempSpmd = std::string(Tmp && *Tmp ? Tmp : "/tmp") +
                           "/dhpfc_launch_" +
                           std::to_string(static_cast<long>(getpid())) +
                           ".spmd";
    if (!writeFile(TempSpmd, Spmd, Err)) {
      std::cerr << "dhpfc: " << Err << "\n";
      return 1;
    }
    Guard.Path = TempSpmd;
    SpmdPath = TempSpmd;
  }
  std::unique_ptr<spmd::SpmdProgram> SP = reparseSpmd(Spmd, SpmdPath);
  if (!SP)
    return 1;

  std::optional<rt::Session> S =
      rt::resolveSession(*SP, sessionOptions(O), Err);
  if (!S) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 2;
  }

  rt::LaunchOptions LO;
  LO.SpmdPath = SpmdPath;
  if (O.TimeoutMs > 0)
    LO.TimeoutMs = O.TimeoutMs;
  LO.KeepDir = O.KeepMesh;
  LO.Hosts = O.Hosts;
  LO.Trace = obs::TraceBuffer::global().active();
  LO.RtBinary = rt::findRtBinary(O.RtBin, Argv0);
  if (LO.RtBinary.empty()) {
    std::cerr << "dhpfc: cannot find the dhpf_rt binary (try --rt-bin=)\n";
    return 2;
  }

  auto T0 = std::chrono::steady_clock::now();
  rt::LaunchResult LR = rt::launchRanks(*SP, *S, LO);
  double WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  for (const std::string &Doc : LR.RankTraces)
    if (!Doc.empty())
      extraTraceDocs().push_back(Doc);
  if (!LR.Ok) {
    std::cerr << "dhpfc: launch FAILED:\n" << LR.Error << "\n";
    if (!LR.Dir.empty())
      std::cerr << "  mesh directory kept at " << LR.Dir << "\n";
    return 1;
  }

  printRunHeader(*S, (std::to_string(LR.NumRanks) +
                      " rank processes over " +
                      (O.Hosts.empty() ? "unix sockets" : "tcp"))
                         .c_str());
  if (O.Stats)
    printRunStats(LR.Merged.R, "wall time", WallSeconds);
  if (!LR.Merged.R.Valid)
    return reportInvalid(LR.Merged.R);

  if (!O.NoCheck) {
    // Differential oracle: the same session through the in-process engine
    // must agree bit for bit.
    spmd::RunConfig RC = S->Config;
    RC.ExecThreads = O.Threads;
    if (!parseEngine(O.Engine, RC.Engine)) {
      std::cerr << "dhpfc: unknown engine '" << O.Engine
                << "' (want tree|bytecode|native|auto)\n";
      return 2;
    }
    spmd::Interpreter I(*SP, RC);
    S->setup(*SP, I);
    spmd::RunResult Ref = I.run();
    std::string Mismatch = compareRuns(LR.Merged, Ref, I);
    if (!Mismatch.empty()) {
      std::cerr << "dhpfc: distributed run DIVERGED from the "
                << engineName(RC.Engine) << " engine: " << Mismatch << "\n";
      return 1;
    }
    std::cout << "in-process agreement (" << engineName(RC.Engine)
              << " engine): OK\n";
  }
  if (!LR.Dir.empty())
    std::cout << "mesh directory kept at " << LR.Dir << "\n";
  return 0;
}

std::string defaultOutputPath(const std::string &Input) {
  size_t Dot = Input.find_last_of('.');
  size_t Slash = Input.find_last_of('/');
  if (Dot == std::string::npos ||
      (Slash != std::string::npos && Dot < Slash))
    return Input + ".spmd";
  return Input.substr(0, Dot) + ".spmd";
}

int cmdCompile(const CliOptions &O) {
  std::string Spmd;
  if (!compileViaService(O.Input, O, Spmd))
    return 1;
  std::string Path = O.Output.empty() ? defaultOutputPath(O.Input) : O.Output;
  std::string Err;
  if (!writeFile(Path, Spmd, Err)) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 1;
  }
  if (Path != "-")
    std::cout << "wrote " << Path << "\n";
  return 0;
}

int cmdRun(const CliOptions &O) {
  std::string Spmd;
  if (!loadSpmd(O, Spmd))
    return 1;
  if (!O.Server.empty()) {
    // Remote run: the daemon executes (an .hpf input it has also compiled)
    // and returns the engine-independent summary; the verdicts inside it
    // drive the exit code.
    std::unique_ptr<net::MsgStream> Stream = connectServer(O);
    if (!Stream)
      return 1;
    try {
      rt::DaemonRunResult R =
          rt::daemonRun(*Stream, Spmd, sessionOptions(O), !O.NoCheck);
      if (!R.Ok) {
        std::cerr << "dhpfc: daemon run failed: " << R.Error << "\n";
        return 1;
      }
      std::cout << "ran on daemon " << O.Server << ":\n" << R.Summary;
      bool Invalid = R.Summary.find("valid 0\n") != std::string::npos;
      bool CheckFailed =
          R.Summary.find("check failed:") != std::string::npos;
      return (Invalid || CheckFailed) ? 1 : 0;
    } catch (const net::TransportError &E) {
      std::cerr << "dhpfc: " << E.what() << "\n";
      return 1;
    }
  }
  std::unique_ptr<spmd::SpmdProgram> SP = reparseSpmd(Spmd, O.Input);
  if (!SP)
    return 1;
  return runProgram(*SP, O);
}

int cmdExport(const CliOptions &O) {
  for (const apps::RegistryEntry &E : apps::appRegistry()) {
    apps::AppInstance App = E.MakeCanonical();
    std::string Text = "! " + E.Name + ": " + E.Summary +
                       "\n! canonical export (dhpfc export)\n" +
                       hpf::printHpfProgram(*App.Prog);
    std::string Path = O.ExportDir + "/" + E.Name + ".hpf";
    std::string Err;
    if (!writeFile(Path, Text, Err)) {
      std::cerr << "dhpfc: " << Err << "\n";
      return 1;
    }
    std::cout << "wrote " << Path << "\n";
  }
  return 0;
}

int cmdList() {
  for (const apps::RegistryEntry &E : apps::appRegistry())
    std::cout << E.Name << "  -  " << E.Summary << "\n";
  return 0;
}

int cmdDaemonStats(const CliOptions &O) {
  std::unique_ptr<net::MsgStream> Stream = connectServer(O);
  if (!Stream)
    return 1;
  try {
    std::cout << rt::daemonStats(*Stream);
    return 0;
  } catch (const net::TransportError &E) {
    std::cerr << "dhpfc: " << E.what() << "\n";
    return 1;
  }
}

int cmdShutdown(const CliOptions &O) {
  std::unique_ptr<net::MsgStream> Stream = connectServer(O);
  if (!Stream)
    return 1;
  try {
    rt::daemonShutdown(*Stream);
    std::cout << "daemon on " << O.Server << " stopping\n";
    return 0;
  } catch (const net::TransportError &E) {
    std::cerr << "dhpfc: " << E.what() << "\n";
    return 1;
  }
}

} // namespace

/// Writes the --trace / --metrics outputs (no-ops when not requested).
/// The driver's buffer plus any per-rank documents a launch collected are
/// merged into one timeline; metrics pick JSON or text by extension.
void writeObsReports(const CliOptions &O) {
  if (!O.TracePath.empty()) {
    obs::TraceBuffer::global().stop();
    std::vector<std::string> Docs = {obs::TraceBuffer::global().chromeJson()};
    for (std::string &Doc : extraTraceDocs())
      Docs.push_back(std::move(Doc));
    std::string Err;
    if (!writeFile(O.TracePath, obs::mergeChromeTraces(Docs), Err))
      std::cerr << "dhpfc: " << Err << "\n";
  }
  if (!O.MetricsPath.empty()) {
    pset::OpCache::global().publishMetrics();
    obs::MetricsRegistry &R = obs::MetricsRegistry::global();
    bool Json = O.MetricsPath.size() > 5 &&
                O.MetricsPath.compare(O.MetricsPath.size() - 5, 5,
                                      ".json") == 0;
    std::string Err;
    if (!writeFile(O.MetricsPath, Json ? R.reportJson() : R.reportText(),
                   Err))
      std::cerr << "dhpfc: " << Err << "\n";
  }
}

int dispatch(const std::string &Cmd, const CliOptions &O, const char *Argv0) {
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "export")
    return cmdExport(O);
  if (Cmd == "stats" || Cmd == "shutdown") {
    if (O.Server.empty()) {
      std::cerr << "dhpfc: " << Cmd << " requires --server=<socket>\n";
      return 2;
    }
    return Cmd == "stats" ? cmdDaemonStats(O) : cmdShutdown(O);
  }
  if (O.Input.empty()) {
    std::cerr << "dhpfc: " << Cmd << " requires an input file\n";
    return 2;
  }
  if (Cmd == "compile")
    return cmdCompile(O);
  if (Cmd == "run")
    return cmdRun(O);
  if (Cmd == "launch")
    return cmdLaunch(O, Argv0);
  std::cerr << "dhpfc: unknown command '" << Cmd << "'\n";
  return usage(Argv0);
}

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Cmd = Argv[1];
  if (Cmd == "--version" || Cmd == "version")
    return printVersion();
  CliOptions O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  // The env vars mirror the flags so wrapper scripts (and the rank
  // processes a launch spawns) can request profiles without CLI changes.
  if (O.TracePath.empty())
    if (const char *Env = std::getenv("DHPF_TRACE"))
      O.TracePath = Env;
  if (O.MetricsPath.empty())
    O.MetricsPath = obs::metricsPathFromEnv();
  if (!O.TracePath.empty()) {
    obs::TraceBuffer::global().setLane(0, "driver");
    obs::TraceBuffer::global().start();
  }
  int Rc;
  try {
    Rc = dispatch(Cmd, O, Argv[0]);
  } catch (const spmd::FootprintError &E) {
    std::cerr << "dhpfc: " << E.what() << "\n";
    Rc = 1;
  }
  writeObsReports(O);
  return Rc;
}
