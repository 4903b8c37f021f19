//===- tools/dhpf_rt/dhpf_rt.cpp - One rank of a distributed run ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-rank worker `dhpfc launch` fork/execs: loads a serialized .spmd,
/// resolves the identical session every other rank resolves, joins the
/// Unix-socket mesh, executes its own rank's node program on the plan
/// executor (bytecode or native, over rt::TransportComm), and writes its
/// binary result file (rt/RankResult.h) for the launcher to merge.
///
///   dhpf_rt <prog.spmd> --rank=R --mesh <dir> --result=<file>
///           [--procs=a,b,...] [--param=k=v]...
///
/// Exit 0 on success (even with validity violations — those travel in the
/// dump for the merged report), 1 on any transport/runtime failure
/// (including arrays too large to allocate), 2 on a usage error, which
/// names the offending token. Failures print a diagnostic naming this
/// rank on stderr, which the launcher forwards.
///
//===----------------------------------------------------------------------===//

#include "net/Socket.h"
#include "net/Tcp.h"
#include "obs/Trace.h"
#include "rt/Launch.h"
#include "rt/RankResult.h"
#include "rt/Session.h"
#include "rt/TransportComm.h"
#include "spmd/Layout.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace dhpf;

namespace {

struct RtOptions {
  std::string SpmdPath;
  std::string MeshDir;
  std::string HostsPath; ///< TCP rank spec; empty = Unix-socket mesh
  std::string ResultPath;
  int64_t Rank = -1;
  rt::SessionOptions Session;
};

int usage() {
  std::cerr << "usage: dhpf_rt <prog.spmd> --rank=R --mesh <dir> "
               "--result=<file> [--hosts=<spec>] [--procs=a,b] "
               "[--param=k=v]\n";
  return 2;
}

/// Accepts both `--opt=value` and `--opt value`.
bool takeValue(const std::string &Arg, const std::string &Name, int Argc,
               char **Argv, int &I, std::string &Out) {
  if (Arg.rfind(Name + "=", 0) == 0) {
    Out = Arg.substr(Name.size() + 1);
    return true;
  }
  if (Arg == Name && I + 1 < Argc) {
    Out = Argv[++I];
    return true;
  }
  return false;
}

/// Returns false on a usage error, after naming the offending token.
bool parseArgs(int Argc, char **Argv, RtOptions &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    std::string V, Err;
    if (takeValue(Arg, "--rank", Argc, Argv, I, V)) {
      if (!rt::parseIntArg(V, 0, O.Rank))
        Err = "invalid --rank '" + V + "'";
    } else if (takeValue(Arg, "--mesh", Argc, Argv, I, V)) {
      O.MeshDir = V;
    } else if (takeValue(Arg, "--hosts", Argc, Argv, I, V)) {
      O.HostsPath = V;
    } else if (takeValue(Arg, "--result", Argc, Argv, I, V)) {
      O.ResultPath = V;
    } else if (takeValue(Arg, "--procs", Argc, Argv, I, V)) {
      rt::parseProcsArg(V, O.Session.ProcShape, Err);
    } else if (takeValue(Arg, "--param", Argc, Argv, I, V)) {
      rt::parseParamArg(V, O.Session.Params, Err);
    } else if (!Arg.empty() && Arg[0] != '-' && O.SpmdPath.empty()) {
      O.SpmdPath = Arg;
    } else {
      Err = "unexpected argument '" + Arg + "'";
    }
    if (!Err.empty()) {
      std::cerr << "dhpf_rt: " << Err << "\n";
      return false;
    }
  }
  return !O.SpmdPath.empty() && !O.MeshDir.empty() &&
         !O.ResultPath.empty() && O.Rank >= 0;
}

} // namespace

int main(int Argc, char **Argv) {
  RtOptions O;
  if (!parseArgs(Argc, Argv, O))
    return usage();

  // DHPF_TRACE (set per rank by the launcher, or by hand) turns on this
  // process's trace buffer; the rank traces in lane rank+1 (lane 0 is the
  // driver), so merged timelines show every process side by side. The
  // trace is written on every exit path: the trace of a dying rank is the
  // one worth reading.
  struct TraceFile {
    std::string Path;
    ~TraceFile() {
      if (Path.empty())
        return;
      std::ofstream TF(Path, std::ios::binary | std::ios::trunc);
      TF << obs::TraceBuffer::global().chromeJson();
    }
  } Trace{obs::startTraceFromEnv(static_cast<uint32_t>(O.Rank) + 1,
                                 "rank " + std::to_string(O.Rank))};
  obs::TraceBuffer *TB = &obs::TraceBuffer::global();

  std::unique_ptr<spmd::SpmdProgram> SP;
  std::optional<rt::Session> S;
  {
    obs::TraceSpan Span(TB, "rank:parse", "rt");
    std::ifstream In(O.SpmdPath, std::ios::binary);
    if (!In) {
      std::cerr << "dhpf_rt rank " << O.Rank << ": cannot read "
                << O.SpmdPath << "\n";
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    DiagnosticEngine Diags;
    SP = spmd::parseSpmdProgram(SS.str(), Diags, O.SpmdPath);
    if (!Diags.empty())
      std::cerr << Diags.str();
    if (!SP)
      return 1;
    std::string Err;
    S = rt::resolveSession(*SP, O.Session, Err);
    if (!S) {
      std::cerr << "dhpf_rt rank " << O.Rank << ": " << Err << "\n";
      return 1;
    }
  }

  try {
    spmd::ProgramLayout L = spmd::resolveLayout(*SP, S->Config);
    if (static_cast<uint64_t>(O.Rank) >= L.NumProcs) {
      std::cerr << "dhpf_rt: rank " << O.Rank << " out of range for "
                << L.NumProcs << " processors\n";
      return 1;
    }
    // Refuse storage that cannot be allocated before joining the mesh.
    spmd::admitFootprint(spmd::resolveStorage(*SP, L),
                         spmd::Footprint::OneRank);
    std::unique_ptr<net::Transport> T;
    {
      obs::TraceSpan Span(TB, "rank:mesh", "rt");
      if (!O.HostsPath.empty()) {
        net::TcpOptions TcpOpts;
        TcpOpts.HostsPath = O.HostsPath;
        T = net::connectTcpMesh(static_cast<unsigned>(O.Rank), L.NumProcs,
                                TcpOpts);
      } else {
        net::SocketOptions SockOpts;
        SockOpts.MeshDir = O.MeshDir;
        T = net::connectSocketMesh(static_cast<unsigned>(O.Rank),
                                   L.NumProcs, SockOpts);
      }
    }

    rt::TransportComm C(*T);
    std::optional<spmd::Interpreter> I;
    {
      obs::TraceSpan Span(TB, "rank:setup", "rt");
      I.emplace(*SP, S->Config, C);
    }
    {
      obs::TraceSpan Span(TB, "rank:seed", "rt");
      S->setup(*SP, *I);
    }
    spmd::RunResult R = I->run();

    {
      obs::TraceSpan Span(TB, "rank:dump", "rt");
      std::string Err;
      if (!rt::writeRankFile(*I, *T, R, O.ResultPath, Err)) {
        std::cerr << "dhpf_rt rank " << O.Rank << ": " << Err << "\n";
        return 1;
      }
    }
    std::string MetricsPath = obs::metricsPathFromEnv();
    if (!MetricsPath.empty()) {
      std::ofstream MF(MetricsPath, std::ios::binary | std::ios::trunc);
      MF << obs::MetricsRegistry::global().reportText();
    }
  } catch (const std::exception &E) {
    std::cerr << "dhpf_rt rank " << O.Rank << ": " << E.what() << "\n";
    return 1;
  }
  return 0;
}
