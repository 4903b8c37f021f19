//===- core/CompilerService.h - Long-lived compiler service --------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service layer of the compiler: one long-lived CompilerService
/// keeps the artifact cache and the table of compiles in flight, and
/// exposes compilation as a request/artifact API:
///
///   CompileRequest  (source text + options)
///     -> fingerprint
///     -> artifact cache hit | join an in-flight compile | fresh compile
///     -> shared CompileArtifact (serialized .spmd, diagnostics, stats)
///
/// The set-operation cache (pset::OpCache::global()) and the native
/// kernel cache (spmd::native::KernelCache::global()) are process globals
/// every compile shares; the service saves and restores the former.
/// compile() is safe to call from many threads at once. `dhpfc` is one
/// caller of this API; the `dhpfd` daemon is another, serving many
/// concurrent connections over sockets against the same warm service. It
/// keeps nothing per caller.
///
/// Three properties the daemon depends on:
///  - identical requests (same source bytes, same options) have the same
///    fingerprint, so N concurrent clients compiling the same program
///    collapse to ONE compile — later arrivals block on the in-flight
///    entry and share the artifact;
///  - artifacts are immutable and shared (shared_ptr<const>), so replies
///    to many clients never copy the .spmd text;
///  - the OpCache can be serialized at shutdown and reloaded at startup,
///    so a cold daemon starts with a warm set-operation cache.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_CORE_COMPILERSERVICE_H
#define DHPF_CORE_COMPILERSERVICE_H

#include "core/Compiler.h"

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace dhpf {
namespace core {

/// One compilation request. Identical (Source, Opts) pairs are one unit
/// of work no matter how many clients submit them.
struct CompileRequest {
  /// Display name for diagnostics (a path or a client-chosen label).
  std::string Name = "<request>";
  /// The mini-HPF source text.
  std::string Source;
  CompilerOptions Opts;
  /// Skip the artifact cache and force a fresh compile (benchmarks
  /// measuring warm-OpCache recompilation). Still deduplicates against a
  /// compile already in flight for the same fingerprint.
  bool BypassArtifactCache = false;
};

/// The immutable result of one compilation, shared among every requester.
struct CompileArtifact {
  bool Ok = false;
  uint64_t Fingerprint = 0;
  /// The compiled program's name (hpf::Program::name(); "" when !Ok).
  std::string ProgName;
  /// The serialized SPMD program ("" when !Ok). Byte-identical to what a
  /// batch `dhpfc compile` writes for the same source and options.
  std::string Spmd;
  /// Formatted diagnostics: warnings on success, errors on failure.
  std::string DiagText;
  /// The --stats rendering (renderCompileStats) of the compile.
  std::string StatsText;
  /// Wall-clock seconds of the compile itself (phase::Total).
  double CompileSeconds = 0.0;
  /// Set-operation cache/fast-path activity during this compile.
  pset::CacheStats CacheDelta;
  unsigned ThreadsUsed = 1;
};

/// How a request was satisfied.
enum class Served : uint8_t {
  Fresh,    ///< this request ran the compiler
  InFlight, ///< joined a compile another request had started
  Artifact, ///< replayed a finished artifact from the cache
};

/// Cumulative service counters (process lifetime).
struct ServiceStats {
  uint64_t Requests = 0;
  uint64_t CompilesStarted = 0;
  uint64_t DedupedInFlight = 0;
  uint64_t ArtifactHits = 0;
  uint64_t Errors = 0;
};

class CompilerService {
public:
  /// The process-global service. All callers in one process — a batch
  /// dhpfc, the daemon's connections, tests — share it, which is exactly
  /// what makes its caches worth keeping.
  static CompilerService &global();

  explicit CompilerService(size_t ArtifactCapacity = 128);
  CompilerService(const CompilerService &) = delete;
  CompilerService &operator=(const CompilerService &) = delete;

  /// The request fingerprint: FNV-1a over the source bytes and every
  /// semantics-affecting compiler option. This is the dedup key for the
  /// artifact cache and the in-flight table.
  static uint64_t fingerprintRequest(const std::string &Source,
                                     const CompilerOptions &Opts);

  /// Compiles (or replays) one request. Never throws on bad input — a
  /// failed compile is an artifact with Ok=false and the errors in
  /// DiagText. \p How, when non-null, reports how the request was served.
  std::shared_ptr<const CompileArtifact> compile(const CompileRequest &R,
                                                 Served *How = nullptr);

  /// Saves / restores the set-operation cache so a cold process starts
  /// warm. Both return false with \p Err set on I/O or format errors.
  bool saveOpCache(const std::string &Path, std::string &Err);
  bool loadOpCache(const std::string &Path, std::string &Err);

  ServiceStats stats() const;
  /// Resident artifacts (bounded by ArtifactCapacity).
  size_t artifactCount() const;
  /// Mirrors service + OpCache counters into the metrics registry
  /// (svc.* and pset.cache.* gauges).
  void publishMetrics();
  /// Drops cached artifacts (the OpCache is cleared separately).
  void clearArtifacts();

private:
  struct InFlight {
    std::condition_variable CV;
    bool Done = false;
    std::shared_ptr<const CompileArtifact> Result;
    unsigned Waiters = 0;
  };

  std::shared_ptr<const CompileArtifact> doCompile(const CompileRequest &R,
                                                   uint64_t FP);
  void rememberLocked(uint64_t FP,
                      const std::shared_ptr<const CompileArtifact> &A);

  mutable std::mutex M;
  size_t ArtifactCapacity;
  /// Front = most recently used.
  std::list<std::pair<uint64_t, std::shared_ptr<const CompileArtifact>>>
      ArtifactLRU;
  std::map<uint64_t, decltype(ArtifactLRU)::iterator> ArtifactMap;
  std::map<uint64_t, std::shared_ptr<InFlight>> InFlightMap;
  ServiceStats Stats;
};

/// Renders the --stats block for one compile (comm-event counts and phase
/// times). Shared by dhpfc's terminal output and the daemon's stats reply
/// so both render identically.
std::string renderCompileStats(const CompileOutput &Out);

} // namespace core
} // namespace dhpf

#endif // DHPF_CORE_COMPILERSERVICE_H
