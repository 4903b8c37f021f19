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
/// result dump (hex-bit doubles) for the launcher to merge.
///
///   dhpf_rt <prog.spmd> --rank=R --mesh <dir> --result=<file>
///           [--procs=a,b,...] [--param=k=v]... [--no-validity]
///
/// Exit 0 on success (even with validity violations — those travel in the
/// dump for the merged report), 1 on any transport/runtime failure, 2 on a
/// usage error. Failures print a diagnostic naming this rank on stderr,
/// which the launcher forwards.
///
//===----------------------------------------------------------------------===//

#include "core/InPlace.h"
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

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
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
  long Rank = -1;
  rt::SessionOptions Session;
};

int usage() {
  std::cerr << "usage: dhpf_rt <prog.spmd> --rank=R --mesh <dir> "
               "--result=<file> [--hosts=<spec>] [--procs=a,b] "
               "[--param=k=v] [--no-validity]\n";
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

bool parseArgs(int Argc, char **Argv, RtOptions &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    std::string V;
    if (takeValue(Arg, "--rank", Argc, Argv, I, V)) {
      O.Rank = std::strtol(V.c_str(), nullptr, 10);
    } else if (takeValue(Arg, "--mesh", Argc, Argv, I, V)) {
      O.MeshDir = V;
    } else if (takeValue(Arg, "--hosts", Argc, Argv, I, V)) {
      O.HostsPath = V;
    } else if (takeValue(Arg, "--result", Argc, Argv, I, V)) {
      O.ResultPath = V;
    } else if (takeValue(Arg, "--procs", Argc, Argv, I, V)) {
      std::istringstream SS(V);
      std::string Tok;
      while (std::getline(SS, Tok, ','))
        O.Session.ProcShape.push_back(
            std::strtoll(Tok.c_str(), nullptr, 10));
    } else if (takeValue(Arg, "--param", Argc, Argv, I, V)) {
      size_t Eq = V.find('=');
      if (Eq == std::string::npos)
        return false;
      O.Session.Params[V.substr(0, Eq)] =
          std::strtoll(V.c_str() + Eq + 1, nullptr, 10);
    } else if (Arg == "--no-validity") {
      O.Session.CheckValidity = false;
    } else if (!Arg.empty() && Arg[0] != '-' && O.SpmdPath.empty()) {
      O.SpmdPath = Arg;
    } else {
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

  std::ifstream In(O.SpmdPath, std::ios::binary);
  if (!In) {
    std::cerr << "dhpf_rt rank " << O.Rank << ": cannot read "
              << O.SpmdPath << "\n";
    return 1;
  }
  std::ostringstream SS;
  SS << In.rdbuf();

  DiagnosticEngine Diags;
  std::unique_ptr<spmd::SpmdProgram> SP =
      spmd::parseSpmdProgram(SS.str(), Diags, O.SpmdPath);
  if (!Diags.empty())
    std::cerr << Diags.str();
  if (!SP)
    return 1;
  // Rewire the runtime contiguity check the serialized form cannot carry.
  SP->InPlaceRuntimeCheck = &core::checkInPlaceAtRuntime;

  std::string Err;
  std::optional<rt::Session> S = rt::resolveSession(*SP, O.Session, Err);
  if (!S) {
    std::cerr << "dhpf_rt rank " << O.Rank << ": " << Err << "\n";
    return 1;
  }

  // DHPF_TRACE (set per rank by the launcher, or by hand) turns on this
  // process's trace buffer; the rank traces in lane rank+1 (lane 0 is the
  // driver), so merged timelines show every process side by side.
  std::string TracePath = obs::startTraceFromEnv(
      static_cast<uint32_t>(O.Rank) + 1, "rank " + std::to_string(O.Rank));
  // Written on failure paths too — the trace of a dying rank is the one
  // worth reading.
  auto WriteTrace = [&TracePath] {
    if (TracePath.empty())
      return;
    std::ofstream TF(TracePath, std::ios::binary | std::ios::trunc);
    TF << obs::TraceBuffer::global().chromeJson();
  };

  try {
    spmd::ProgramLayout L = spmd::resolveLayout(*SP, S->Config);
    if (static_cast<unsigned long>(O.Rank) >= L.NumProcs) {
      std::cerr << "dhpf_rt: rank " << O.Rank << " out of range for "
                << L.NumProcs << " processors\n";
      return 1;
    }
    std::unique_ptr<net::Transport> T;
    if (!O.HostsPath.empty()) {
      net::TcpOptions TcpOpts;
      TcpOpts.HostsPath = O.HostsPath;
      T = net::connectTcpMesh(static_cast<unsigned>(O.Rank), L.NumProcs,
                              TcpOpts);
    } else {
      net::SocketOptions SockOpts;
      SockOpts.MeshDir = O.MeshDir;
      T = net::connectSocketMesh(static_cast<unsigned>(O.Rank), L.NumProcs,
                                 SockOpts);
    }

    rt::TransportComm C(*T);
    spmd::Interpreter I(*SP, S->Config, C);
    S->setup(*SP, I);
    spmd::RunResult R = I.run();

    rt::RankDump D = rt::dumpRank(I, *T, R);
    std::ofstream Out(O.ResultPath, std::ios::binary | std::ios::trunc);
    if (!Out) {
      std::cerr << "dhpf_rt rank " << O.Rank << ": cannot write "
                << O.ResultPath << "\n";
      return 1;
    }
    Out << rt::serializeRankDump(D);
    Out.close();
    if (!Out) {
      std::cerr << "dhpf_rt rank " << O.Rank << ": short write to "
                << O.ResultPath << "\n";
      return 1;
    }
    WriteTrace();
    std::string MetricsPath = obs::metricsPathFromEnv();
    if (!MetricsPath.empty()) {
      std::ofstream MF(MetricsPath, std::ios::binary | std::ios::trunc);
      MF << obs::MetricsRegistry::global().reportText();
    }
  } catch (const net::TransportError &E) {
    std::cerr << "dhpf_rt rank " << O.Rank << ": " << E.what() << "\n";
    WriteTrace();
    return 1;
  } catch (const std::exception &E) {
    std::cerr << "dhpf_rt rank " << O.Rank << ": " << E.what() << "\n";
    WriteTrace();
    return 1;
  }
  return 0;
}
