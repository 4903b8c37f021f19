//===- rt/Daemon.h - The dhpfd compile/run daemon ------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived compiler daemon: a net::MsgServer on a Unix socket whose
/// handlers are thin adapters from wire payloads to the CompilerService
/// API. Every compile request flows through the same service instance, so
/// N concurrent clients share one warm OpCache / kernel cache and
/// identical in-flight requests collapse to one compile. The
/// daemon is the "millions of users" deployment shape of the toolchain;
/// `dhpfc --server=PATH` is its client, and a batch `dhpfc` is the same
/// code driving the same service in-process.
///
/// Wire payloads are line-structured text: `kv <key> <value>` lines for
/// scalars and `blob <key> <len>\n<bytes>` for texts that may contain
/// newlines (sources, .spmd programs, diagnostics). Request tags:
/// compile / run / stats / ping / shutdown; every reply is MsgOkResp with
/// a payload or MsgErrResp with a `blob error`.
///
/// Persistence: with DaemonOptions::CacheFile set, start() loads a
/// previously saved set-operation cache (a cold daemon starts warm) and
/// stop() saves it back.
///
/// runSummary() renders a run's engine-independent counters (messages,
/// bytes, statement instances, copy classification, validity, accumulator
/// bit patterns) — no wall-clock fields — so a daemon-side run can be
/// compared bit-for-bit against a local run of the same program.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_RT_DAEMON_H
#define DHPF_RT_DAEMON_H

#include "core/CompilerService.h"
#include "net/Server.h"
#include "rt/Session.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace dhpf {
namespace rt {

/// Request/response tags on the daemon socket.
enum DaemonMsg : uint64_t {
  MsgCompileReq = 1,
  MsgRunReq = 2,
  MsgStatsReq = 3,
  MsgPingReq = 4,
  MsgShutdownReq = 5,
  MsgOkResp = 100,
  MsgErrResp = 101,
};

struct DaemonOptions {
  std::string SocketPath;
  /// Set-operation cache persistence file ("" = none): loaded by start(),
  /// saved by stop().
  std::string CacheFile;
  /// Suppress the daemon's stderr request log.
  bool Quiet = false;
};

/// The daemon itself. start() binds and serves in the background; stop()
/// (or destruction) drains connections and persists the cache. Tests and
/// the bench harness run one in-process; `dhpfd` wraps one in a process.
class Daemon {
public:
  explicit Daemon(DaemonOptions O) : Opts(std::move(O)) {}
  ~Daemon();

  /// Binds the socket and starts serving. Throws net::TransportError on
  /// bind failure. A load failure of CacheFile is reported to stderr and
  /// ignored (a missing or stale cache file must not block startup).
  void start();
  /// Stops serving and saves CacheFile. Idempotent.
  void stop();
  /// Blocks until a client's shutdown request stops the daemon.
  void wait();

  bool running() const { return Server.running(); }
  /// True once a client has asked the daemon to stop (the flag wait()
  /// polls; external event loops can poll it too).
  bool shutdownRequested() const {
    return ShutdownRequested.load(std::memory_order_relaxed);
  }
  const std::string &socketPath() const { return Opts.SocketPath; }
  /// Requests currently being processed (the stats reply's queue_depth).
  unsigned queueDepth() const {
    return Queue.load(std::memory_order_relaxed);
  }
  /// Connections whose threads are still running.
  unsigned activeConnections() const { return Server.activeConnections(); }
  core::CompilerService &service() { return core::CompilerService::global(); }

private:
  DaemonOptions Opts;
  net::MsgServer Server;
  std::atomic<unsigned> Queue{0};
  std::atomic<bool> ShutdownRequested{false};
  std::mutex StopM; ///< serializes stop() against itself
  bool Stopped = false;

  bool handle(unsigned ClientId, uint64_t Tag, const std::string &Payload,
              net::MsgStream &Stream);
  std::string handleCompile(unsigned ClientId, const std::string &Payload);
  std::string handleRun(const std::string &Payload);
  std::string handleStats();
};

/// Engine-independent, wall-clock-free rendering of a run result, plus
/// the reference-check verdict ("ok", "skipped", or "failed: ..."). Equal
/// strings <=> the runs agreed bit-for-bit on every deterministic output
/// (accumulators are rendered as exact bit patterns).
std::string runSummary(const spmd::RunResult &RR,
                       const std::string &CheckVerdict);

/// Executes a parsed program the way `dhpfc run` does (resolve session,
/// interpret, optional canonical reference check) and returns
/// runSummary(). Returns false with \p Err set when the session cannot be
/// resolved. Shared by the daemon's run handler and local clients so both
/// sides produce comparable summaries.
bool runForSummary(spmd::SpmdProgram &SP, const SessionOptions &SO,
                   bool Check, std::string &SummaryOut, std::string &Err);

//===----------------------------------------------------------------------===//
// Client helpers (used by dhpfc --server= and tests)
//===----------------------------------------------------------------------===//

struct DaemonCompileResult {
  bool Ok = false;
  uint64_t Fingerprint = 0;
  std::string ProgName;
  std::string Served; ///< "fresh" | "inflight" | "artifact"
  double CompileSeconds = 0.0;
  unsigned ThreadsUsed = 1;
  std::string Spmd;
  std::string DiagText;
  std::string StatsText;
};

/// Compiles \p Source on the daemon. Throws net::TransportError on
/// transport failure; compile failures come back as Ok=false with the
/// diagnostics in DiagText.
DaemonCompileResult daemonCompile(net::MsgStream &S, const std::string &Name,
                                  const std::string &Source,
                                  const core::CompilerOptions &Opts,
                                  bool Fresh = false);

struct DaemonRunResult {
  bool Ok = false;
  std::string Summary; ///< runSummary() text when Ok
  std::string Error;
};

DaemonRunResult daemonRun(net::MsgStream &S, const std::string &Spmd,
                          const SessionOptions &SO, bool Check);

/// The daemon's stats report (service counters, cache levels, server
/// connection counts) as text.
std::string daemonStats(net::MsgStream &S);

/// Round-trip liveness probe; throws on failure.
void daemonPing(net::MsgStream &S);

/// Asks the daemon to stop (it persists its cache and exits wait()).
void daemonShutdown(net::MsgStream &S);

} // namespace rt
} // namespace dhpf

#endif // DHPF_RT_DAEMON_H
