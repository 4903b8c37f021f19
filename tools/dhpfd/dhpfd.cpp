//===- tools/dhpfd/dhpfd.cpp - The dhpf compiler daemon ------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `dhpfd` runs one rt::Daemon in a process: a long-lived compile/run
/// server on a Unix socket. It exists so many short-lived `dhpfc
/// --server=` clients share one warm CompilerService — a warm Presburger
/// operation cache, kernel cache, and artifact cache — instead of each
/// paying the cold-start cost. The operation cache and the artifact cache
/// evict in LRU order, so a daemon that keeps compiling new programs levels
/// off in memory once they fill.
///
///   dhpfd --socket=/tmp/dhpfd.sock [--cache=ops.cache] [--metrics=m.txt]
///
/// SIGINT/SIGTERM and a client `dhpfc shutdown --server=` both stop the
/// daemon gracefully: connections drain, the OpCache is saved to --cache,
/// and --metrics receives a final metrics dump.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "rt/Daemon.h"

#include <atomic>
#include <csignal>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>

using namespace dhpf;

namespace {

std::atomic<bool> SignalStop{false};

void onSignal(int) { SignalStop.store(true); }

void usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0 << " --socket=<path> [options]\n"
      << "\n"
      << "The dhpf compiler daemon: serves compile/run requests from\n"
      << "`dhpfc --server=<path>` clients over a Unix socket, keeping the\n"
      << "set-operation, kernel, and artifact caches warm across requests.\n"
      << "\n"
      << "options:\n"
      << "  --socket=<path>   Unix socket to listen on (required)\n"
      << "  --cache=<file>    load the set-operation cache at startup and\n"
      << "                    save it at shutdown (cold daemon starts warm)\n"
      << "  --metrics=<file>  dump the metrics registry to <file> at\n"
      << "                    shutdown\n"
      << "  --quiet           suppress the per-request stderr log\n";
}

bool consume(const char *Arg, const char *Prefix, std::string &Out) {
  size_t N = std::strlen(Prefix);
  if (std::strncmp(Arg, Prefix, N) != 0)
    return false;
  Out.assign(Arg + N);
  return true;
}

void dumpMetrics(const std::string &Path) {
  if (Path.empty())
    return;
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out) {
    std::cerr << "dhpfd: cannot write metrics to '" << Path << "'\n";
    return;
  }
  Out << obs::MetricsRegistry::global().reportText();
  std::cerr << "dhpfd: metrics written to " << Path << "\n";
}

} // namespace

int main(int Argc, char **Argv) {
  rt::DaemonOptions Opts;
  std::string MetricsPath;
  for (int I = 1; I < Argc; ++I) {
    std::string V;
    if (consume(Argv[I], "--socket=", Opts.SocketPath) ||
        consume(Argv[I], "--cache=", Opts.CacheFile) ||
        consume(Argv[I], "--metrics=", MetricsPath))
      continue;
    if (std::strcmp(Argv[I], "--quiet") == 0) {
      Opts.Quiet = true;
      continue;
    }
    if (std::strcmp(Argv[I], "--help") == 0 ||
        std::strcmp(Argv[I], "-h") == 0) {
      usage(Argv[0]);
      return 0;
    }
    std::cerr << "dhpfd: unknown argument '" << Argv[I] << "'\n";
    usage(Argv[0]);
    return 2;
  }
  if (Opts.SocketPath.empty()) {
    std::cerr << "dhpfd: --socket=<path> is required\n";
    usage(Argv[0]);
    return 2;
  }

  // A client vanishing mid-write must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  rt::Daemon D(Opts);
  try {
    D.start();
  } catch (const net::TransportError &E) {
    std::cerr << "dhpfd: cannot start: " << E.what() << "\n";
    return 1;
  }
  std::cerr << "dhpfd: serving on " << Opts.SocketPath
            << (Opts.CacheFile.empty() ? "" : " (cache " + Opts.CacheFile + ")")
            << "\n";

  // Block until a client shutdown request or a termination signal.
  while (!D.shutdownRequested() && !SignalStop.load()) {
    struct timespec TS = {0, 50 * 1000 * 1000};
    nanosleep(&TS, nullptr);
  }
  D.stop(); // idempotent: saves the cache exactly once

  D.service().publishMetrics();
  dumpMetrics(MetricsPath);
  std::cerr << "dhpfd: stopped\n";
  return 0;
}
