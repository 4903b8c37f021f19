//===- rt/Daemon.cpp - The dhpfd compile/run daemon ----------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Daemon.h"

#include "pset/OpCache.h"
#include "spmd/Layout.h"
#include "spmd/Serialize.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

using namespace dhpf;
using namespace dhpf::rt;

//===----------------------------------------------------------------------===//
// Wire payload codec: `kv <key> <value>` lines for scalars, `blob <key>
// <len>` + raw bytes for newline-containing texts. Order-independent.
//===----------------------------------------------------------------------===//

namespace {

class WireWriter {
public:
  void kv(const std::string &K, const std::string &V) {
    Buf += "kv " + K + " " + V + "\n";
  }
  void kvU(const std::string &K, uint64_t V) { kv(K, std::to_string(V)); }
  void kvHex(const std::string &K, uint64_t V) {
    char B[32];
    std::snprintf(B, sizeof(B), "%llx", static_cast<unsigned long long>(V));
    kv(K, B);
  }
  void kvF(const std::string &K, double V) {
    char B[48];
    std::snprintf(B, sizeof(B), "%.17g", V);
    kv(K, B);
  }
  void blob(const std::string &K, const std::string &B) {
    Buf += "blob " + K + " " + std::to_string(B.size()) + "\n";
    Buf += B;
    Buf += "\n";
  }
  const std::string &str() const { return Buf; }

private:
  std::string Buf;
};

class WireReader {
public:
  bool parse(const std::string &P, std::string &Err) {
    size_t I = 0;
    while (I < P.size()) {
      size_t Eol = P.find('\n', I);
      if (Eol == std::string::npos) {
        Err = "unterminated wire line";
        return false;
      }
      std::istringstream Line(P.substr(I, Eol - I));
      std::string Kind, Key;
      if (!(Line >> Kind >> Key)) {
        Err = "malformed wire line";
        return false;
      }
      if (Kind == "kv") {
        std::string V;
        std::getline(Line, V);
        if (!V.empty() && V[0] == ' ')
          V.erase(0, 1);
        Fields[Key] = V;
        I = Eol + 1;
      } else if (Kind == "blob") {
        size_t Len = 0;
        if (!(Line >> Len)) {
          Err = "malformed blob length for '" + Key + "'";
          return false;
        }
        I = Eol + 1;
        if (I + Len + 1 > P.size() || P[I + Len] != '\n') {
          Err = "truncated blob '" + Key + "'";
          return false;
        }
        Fields[Key] = P.substr(I, Len);
        I += Len + 1;
      } else {
        Err = "unknown wire record '" + Kind + "'";
        return false;
      }
    }
    return true;
  }

  bool has(const std::string &K) const { return Fields.count(K) != 0; }
  std::string get(const std::string &K, const std::string &Def = "") const {
    auto It = Fields.find(K);
    return It == Fields.end() ? Def : It->second;
  }
  uint64_t getU(const std::string &K, uint64_t Def = 0) const {
    auto It = Fields.find(K);
    return It == Fields.end() ? Def : std::strtoull(It->second.c_str(),
                                                    nullptr, 10);
  }
  uint64_t getHex(const std::string &K) const {
    auto It = Fields.find(K);
    return It == Fields.end() ? 0
                              : std::strtoull(It->second.c_str(), nullptr, 16);
  }
  double getF(const std::string &K) const {
    auto It = Fields.find(K);
    return It == Fields.end() ? 0.0 : std::strtod(It->second.c_str(), nullptr);
  }
  const std::map<std::string, std::string> &fields() const { return Fields; }

private:
  std::map<std::string, std::string> Fields;
};

const char *servedName(core::Served S) {
  switch (S) {
  case core::Served::Fresh:
    return "fresh";
  case core::Served::InFlight:
    return "inflight";
  case core::Served::Artifact:
    return "artifact";
  }
  return "fresh";
}

} // namespace

//===----------------------------------------------------------------------===//
// Run summary (shared by daemon and local differential checks)
//===----------------------------------------------------------------------===//

std::string rt::runSummary(const spmd::RunResult &RR,
                           const std::string &CheckVerdict) {
  std::ostringstream OS;
  OS << "messages " << RR.Messages << "\n"
     << "bytes " << RR.Bytes << "\n"
     << "stmt_instances " << RR.StmtInstances << "\n"
     << "span_copies " << RR.SpanCopies << "\n"
     << "packed_copies " << RR.PackedCopies << "\n"
     << "valid " << (RR.Valid ? 1 : 0) << "\n";
  for (const std::string &V : RR.Violations)
    OS << "violation " << V << "\n";
  for (const auto &Acc : RR.FinalAccums) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(double), "accum bit rendering");
    std::memcpy(&Bits, &Acc.second, sizeof(Bits));
    char B[32];
    std::snprintf(B, sizeof(B), "%016llx",
                  static_cast<unsigned long long>(Bits));
    OS << "accum " << Acc.first << " " << B << "\n";
  }
  OS << "check " << CheckVerdict << "\n";
  return OS.str();
}

bool rt::runForSummary(spmd::SpmdProgram &SP, const SessionOptions &SO,
                       bool Check, std::string &SummaryOut,
                       std::string &Err) {
  std::optional<Session> S = resolveSession(SP, SO, Err);
  if (!S)
    return false;
  // The interpreter admits the storage its engine allocates.
  std::optional<spmd::Interpreter> I;
  try {
    I.emplace(SP, S->Config);
  } catch (const spmd::FootprintError &E) {
    Err = E.what();
    return false;
  }
  S->setup(SP, *I);
  spmd::RunResult RR = I->run();
  std::string Verdict = "skipped";
  if (Check && S->Reg && S->Canonical) {
    apps::AppInstance App = S->Reg->MakeCanonical();
    if (App.Check) {
      std::string CheckErr;
      Verdict = App.Check(*I, CheckErr) ? "ok" : "failed: " + CheckErr;
    }
  }
  SummaryOut = runSummary(RR, Verdict);
  return true;
}

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  if (!Opts.CacheFile.empty()) {
    std::string Err;
    if (service().loadOpCache(Opts.CacheFile, Err)) {
      if (!Opts.Quiet)
        std::cerr << "dhpfd: warm-started "
                  << pset::OpCache::global().entryCount()
                  << " set-operation cache entries from " << Opts.CacheFile
                  << "\n";
    } else if (!Opts.Quiet) {
      // A missing file on first launch is the normal cold start.
      std::cerr << "dhpfd: cold start (" << Err << ")\n";
    }
  }
  Server.start(Opts.SocketPath,
               [this](unsigned Id, uint64_t Tag, const std::string &Payload,
                      net::MsgStream &Stream) {
                 return handle(Id, Tag, Payload, Stream);
               });
}

void Daemon::stop() {
  {
    std::lock_guard<std::mutex> Lock(StopM);
    if (Stopped)
      return;
    Stopped = true;
  }
  Server.stop();
  if (!Opts.CacheFile.empty()) {
    std::string Err;
    if (service().saveOpCache(Opts.CacheFile, Err)) {
      if (!Opts.Quiet)
        std::cerr << "dhpfd: saved " << pset::OpCache::global().entryCount()
                  << " set-operation cache entries to " << Opts.CacheFile
                  << "\n";
    } else {
      std::cerr << "dhpfd: cache save failed: " << Err << "\n";
    }
  }
}

void Daemon::wait() {
  // stop() waits for the connection threads, so it must not run on one of
  // them; the shutdown handler only sets a flag and this (main) thread
  // acts.
  while (Server.running() && !ShutdownRequested.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop();
}

bool Daemon::handle(unsigned ClientId, uint64_t Tag,
                    const std::string &Payload, net::MsgStream &Stream) {
  struct QueueScope {
    std::atomic<unsigned> &Q;
    ~QueueScope() { Q.fetch_sub(1, std::memory_order_relaxed); }
  };
  Queue.fetch_add(1, std::memory_order_relaxed);
  QueueScope QS{Queue};
  try {
    switch (Tag) {
    case MsgCompileReq:
      Stream.send(MsgOkResp, handleCompile(ClientId, Payload));
      break;
    case MsgRunReq:
      Stream.send(MsgOkResp, handleRun(Payload));
      break;
    case MsgStatsReq:
      Stream.send(MsgOkResp, handleStats());
      break;
    case MsgPingReq: {
      WireWriter W;
      W.kv("pong", "1");
      Stream.send(MsgOkResp, W.str());
      break;
    }
    case MsgShutdownReq: {
      WireWriter W;
      W.kv("stopping", "1");
      Stream.send(MsgOkResp, W.str());
      ShutdownRequested.store(true);
      return false;
    }
    default: {
      WireWriter W;
      W.blob("error", "unknown request tag " + std::to_string(Tag));
      Stream.send(MsgErrResp, W.str());
      break;
    }
    }
  } catch (const net::TransportError &) {
    throw; // the connection is gone; let serveOne drop it
  } catch (const std::exception &E) {
    // A handler bug must kill neither the daemon nor the connection.
    WireWriter W;
    W.blob("error", std::string("internal error: ") + E.what());
    Stream.send(MsgErrResp, W.str());
  }
  return true;
}

std::string Daemon::handleCompile(unsigned ClientId,
                                  const std::string &Payload) {
  WireReader In;
  std::string Err;
  if (!In.parse(Payload, Err) || !In.has("source"))
    throw std::runtime_error("malformed compile request: " +
                             (Err.empty() ? "missing source blob" : Err));
  core::CompileRequest R;
  R.Name = In.get("name", "<remote>");
  R.Source = In.get("source");
  R.Opts.LoopSplitting = In.getU("split", 1) != 0;
  R.Opts.Coalescing = In.getU("coalesce", 1) != 0;
  R.Opts.InPlaceAnalysis = In.getU("inplace", 1) != 0;
  R.Opts.CombinedFormulation = In.getU("combined", 1) != 0;
  R.Opts.ReorderLoops = In.getU("reorder", 1) != 0;
  R.Opts.AnalysisThreads = static_cast<unsigned>(In.getU("threads", 0));
  R.BypassArtifactCache = In.getU("fresh", 0) != 0;

  core::Served How = core::Served::Fresh;
  std::shared_ptr<const core::CompileArtifact> A = service().compile(R, &How);
  if (!Opts.Quiet)
    std::cerr << "dhpfd: [" << ClientId << "] compile '" << R.Name << "' -> "
              << (A->Ok ? "ok" : "error") << " (" << servedName(How) << ")\n";

  WireWriter W;
  W.kvU("ok", A->Ok ? 1 : 0);
  W.kvHex("fingerprint", A->Fingerprint);
  W.kv("progname", A->ProgName);
  W.kv("served", servedName(How));
  W.kvF("compile_s", A->CompileSeconds);
  W.kvU("threads", A->ThreadsUsed);
  W.blob("stats", A->StatsText);
  W.blob("diags", A->DiagText);
  W.blob("spmd", A->Spmd);
  return W.str();
}

std::string Daemon::handleRun(const std::string &Payload) {
  WireReader In;
  std::string Err;
  if (!In.parse(Payload, Err))
    throw std::runtime_error("malformed run request: " + Err);
  DiagnosticEngine Diags;
  std::unique_ptr<spmd::SpmdProgram> SP =
      spmd::parseSpmdProgram(In.get("spmd"), Diags, "<remote spmd>");
  WireWriter W;
  if (!SP) {
    W.kvU("ok", 0);
    W.blob("error", Diags.str());
    return W.str();
  }
  SessionOptions SO;
  SO.NumProcs = static_cast<int64_t>(In.getU("procs", 4));
  for (const auto &KV : In.fields())
    if (KV.first.rfind("param.", 0) == 0)
      SO.Params[KV.first.substr(6)] =
          std::strtoll(KV.second.c_str(), nullptr, 10);
  std::string Summary;
  if (!runForSummary(*SP, SO, In.getU("check", 1) != 0, Summary, Err)) {
    W.kvU("ok", 0);
    W.blob("error", Err);
    return W.str();
  }
  W.kvU("ok", 1);
  W.blob("summary", Summary);
  return W.str();
}

std::string Daemon::handleStats() {
  core::ServiceStats S = service().stats();
  std::ostringstream OS;
  OS << "requests " << S.Requests << "\n"
     << "compiles_started " << S.CompilesStarted << "\n"
     << "deduped_inflight " << S.DedupedInFlight << "\n"
     << "artifact_hits " << S.ArtifactHits << "\n"
     << "errors " << S.Errors << "\n"
     << "artifacts_resident " << service().artifactCount() << "\n"
     << "opcache_entries " << pset::OpCache::global().entryCount() << "\n"
     << "connections_active " << Server.activeConnections() << "\n"
     << "connections_total " << Server.totalConnections() << "\n"
     << "queue_depth " << queueDepth() << "\n";
  WireWriter W;
  W.blob("stats", OS.str());
  return W.str();
}

//===----------------------------------------------------------------------===//
// Client helpers
//===----------------------------------------------------------------------===//

namespace {

/// Sends one request and receives its reply; MsgErrResp becomes a thrown
/// TransportError naming the daemon-side failure.
WireReader roundTrip(net::MsgStream &S, uint64_t Tag,
                     const std::string &Payload) {
  S.send(Tag, Payload);
  uint64_t RespTag = 0;
  std::string Resp;
  if (!S.recv(RespTag, Resp))
    throw net::TransportError("daemon closed the connection mid-request");
  WireReader R;
  std::string Err;
  if (!R.parse(Resp, Err))
    throw net::TransportError("garbled daemon reply: " + Err);
  if (RespTag == MsgErrResp)
    throw net::TransportError("daemon error: " + R.get("error", "<unknown>"));
  return R;
}

} // namespace

DaemonCompileResult rt::daemonCompile(net::MsgStream &S,
                                      const std::string &Name,
                                      const std::string &Source,
                                      const core::CompilerOptions &Opts,
                                      bool Fresh) {
  WireWriter W;
  W.kv("name", Name);
  W.kvU("split", Opts.LoopSplitting);
  W.kvU("coalesce", Opts.Coalescing);
  W.kvU("inplace", Opts.InPlaceAnalysis);
  W.kvU("combined", Opts.CombinedFormulation);
  W.kvU("reorder", Opts.ReorderLoops);
  W.kvU("threads", Opts.AnalysisThreads);
  W.kvU("fresh", Fresh ? 1 : 0);
  W.blob("source", Source);
  WireReader R = roundTrip(S, MsgCompileReq, W.str());
  DaemonCompileResult Out;
  Out.Ok = R.getU("ok") != 0;
  Out.Fingerprint = R.getHex("fingerprint");
  Out.ProgName = R.get("progname");
  Out.Served = R.get("served", "fresh");
  Out.CompileSeconds = R.getF("compile_s");
  Out.ThreadsUsed = static_cast<unsigned>(R.getU("threads", 1));
  Out.Spmd = R.get("spmd");
  Out.DiagText = R.get("diags");
  Out.StatsText = R.get("stats");
  return Out;
}

DaemonRunResult rt::daemonRun(net::MsgStream &S, const std::string &Spmd,
                              const SessionOptions &SO, bool Check) {
  WireWriter W;
  W.kvU("procs", static_cast<uint64_t>(SO.NumProcs));
  W.kvU("check", Check ? 1 : 0);
  for (const auto &P : SO.Params)
    W.kv("param." + P.first, std::to_string(P.second));
  W.blob("spmd", Spmd);
  WireReader R = roundTrip(S, MsgRunReq, W.str());
  DaemonRunResult Out;
  Out.Ok = R.getU("ok") != 0;
  Out.Summary = R.get("summary");
  Out.Error = R.get("error");
  return Out;
}

std::string rt::daemonStats(net::MsgStream &S) {
  WireWriter W;
  W.kv("want", "stats");
  return roundTrip(S, MsgStatsReq, W.str()).get("stats");
}

void rt::daemonPing(net::MsgStream &S) {
  WireWriter W;
  W.kv("ping", "1");
  if (roundTrip(S, MsgPingReq, W.str()).getU("pong") != 1)
    throw net::TransportError("daemon ping got no pong");
}

void rt::daemonShutdown(net::MsgStream &S) {
  WireWriter W;
  W.kv("reason", "client request");
  (void)roundTrip(S, MsgShutdownReq, W.str());
}
