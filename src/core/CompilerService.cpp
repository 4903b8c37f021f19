//===- core/CompilerService.cpp - Long-lived compiler service ------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/CompilerService.h"

#include "core/CompilerDriver.h"
#include "hpf/HpfParser.h"
#include "obs/Metrics.h"
#include "pset/OpCache.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace dhpf;
using namespace dhpf::core;

//===----------------------------------------------------------------------===//
// Stats rendering (shared with dhpfc --stats)
//===----------------------------------------------------------------------===//

std::string core::renderCompileStats(const CompileOutput &Out) {
  std::ostringstream OS;
  OS << "  comm events: " << Out.NumCommEvents << " ("
     << Out.NumContiguousProven << " contiguous, " << Out.NumRectSections
     << " rect sections), split nests: " << Out.NumSplitNests << " ("
     << Out.NumSplitRefused << " refused), permuted nests: "
     << Out.NumPermutedNests << " (" << Out.NumOrderRefused
     << " refused), exact sections: " << Out.NumExactSections << " ("
     << Out.NumExactPieces << " pieces), analysis threads: "
     << Out.ThreadsUsed << "\n";
  for (const PhaseTimers::Entry &E : Out.Timers.entries()) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%9.3f ms", E.Seconds * 1e3);
    OS << "  " << Buf << "  " << E.Name << "\n";
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// CompilerService
//===----------------------------------------------------------------------===//

CompilerService &CompilerService::global() {
  static CompilerService S;
  return S;
}

CompilerService::CompilerService(size_t ArtifactCapacity)
    : ArtifactCapacity(ArtifactCapacity ? ArtifactCapacity : 1) {}

uint64_t CompilerService::fingerprintRequest(const std::string &Source,
                                             const CompilerOptions &Opts) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](const void *Data, size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != Len; ++I) {
      H ^= P[I];
      H *= 0x100000001b3ull;
    }
  };
  Mix(Source.data(), Source.size());
  // Every option that changes the compiled program is part of the request
  // identity. DumpAfter only adds side-channel output; thread counts do
  // not change the emitted program (emission is sequential) but are folded
  // in anyway so a request is served with the configuration it asked for.
  unsigned char Flags[5] = {Opts.LoopSplitting, Opts.Coalescing,
                            Opts.InPlaceAnalysis, Opts.CombinedFormulation,
                            Opts.ReorderLoops};
  Mix(Flags, sizeof(Flags));
  uint32_t Threads = Opts.AnalysisThreads;
  Mix(&Threads, sizeof(Threads));
  if (H == 0)
    H = 0x9e3779b97f4a7c15ull; // 0 is the "no fingerprint" sentinel
  return H;
}

std::shared_ptr<const CompileArtifact>
CompilerService::compile(const CompileRequest &R, Served *How) {
  uint64_t FP = fingerprintRequest(R.Source, R.Opts);
  std::shared_ptr<InFlight> Mine;
  {
    std::unique_lock<std::mutex> Lock(M);
    ++Stats.Requests;
    if (!R.BypassArtifactCache) {
      auto It = ArtifactMap.find(FP);
      if (It != ArtifactMap.end()) {
        ArtifactLRU.splice(ArtifactLRU.begin(), ArtifactLRU, It->second);
        ++Stats.ArtifactHits;
        if (How)
          *How = Served::Artifact;
        return It->second->second;
      }
    }
    auto FIt = InFlightMap.find(FP);
    if (FIt != InFlightMap.end()) {
      // Someone is compiling this exact request right now: join them.
      std::shared_ptr<InFlight> F = FIt->second;
      ++Stats.DedupedInFlight;
      ++F->Waiters;
      F->CV.wait(Lock, [&F] { return F->Done; });
      --F->Waiters;
      if (How)
        *How = Served::InFlight;
      return F->Result;
    }
    Mine = std::make_shared<InFlight>();
    InFlightMap.emplace(FP, Mine);
    ++Stats.CompilesStarted;
  }

  std::shared_ptr<const CompileArtifact> A = doCompile(R, FP);

  {
    std::lock_guard<std::mutex> Lock(M);
    if (!A->Ok)
      ++Stats.Errors;
    else
      rememberLocked(FP, A);
    Mine->Result = A;
    Mine->Done = true;
    InFlightMap.erase(FP);
  }
  Mine->CV.notify_all();
  if (How)
    *How = Served::Fresh;
  return A;
}

std::shared_ptr<const CompileArtifact>
CompilerService::doCompile(const CompileRequest &R, uint64_t FP) {
  auto A = std::make_shared<CompileArtifact>();
  A->Fingerprint = FP;
  DiagnosticEngine Diags;
  Expected<std::unique_ptr<hpf::Program>> Parsed =
      hpf::parseHpfProgram(R.Source, Diags, R.Name);
  if (!Parsed) {
    A->DiagText = Diags.str();
    return A;
  }
  std::unique_ptr<hpf::Program> Prog = std::move(Parsed).take();
  CompilerDriver Driver(*Prog, R.Opts, &Diags);
  std::unique_ptr<CompileOutput> Out = Driver.run();
  A->DiagText = Diags.str();
  if (!Out)
    return A;
  A->Ok = true;
  A->ProgName = Prog->name();
  A->Spmd = spmd::serializeSpmdProgram(Out->Program);
  A->StatsText = renderCompileStats(*Out);
  A->CacheDelta = Out->Cache;
  A->ThreadsUsed = Out->ThreadsUsed;
  A->CompileSeconds = Out->Timers.seconds(phase::Total);
  return A;
}

void CompilerService::rememberLocked(
    uint64_t FP, const std::shared_ptr<const CompileArtifact> &A) {
  auto It = ArtifactMap.find(FP);
  if (It != ArtifactMap.end()) {
    // A bypass compile of a cached fingerprint refreshes the entry.
    It->second->second = A;
    ArtifactLRU.splice(ArtifactLRU.begin(), ArtifactLRU, It->second);
    return;
  }
  ArtifactLRU.emplace_front(FP, A);
  ArtifactMap.emplace(FP, ArtifactLRU.begin());
  while (ArtifactLRU.size() > ArtifactCapacity) {
    ArtifactMap.erase(ArtifactLRU.back().first);
    ArtifactLRU.pop_back();
  }
}

bool CompilerService::saveOpCache(const std::string &Path, std::string &Err) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out) {
    Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  pset::OpCache::global().serialize(Out);
  Out.flush();
  if (!Out) {
    Err = "error writing '" + Path + "'";
    return false;
  }
  return true;
}

bool CompilerService::loadOpCache(const std::string &Path, std::string &Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Err = "cannot open '" + Path + "' for reading";
    return false;
  }
  return pset::OpCache::global().deserialize(In, &Err);
}

ServiceStats CompilerService::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return Stats;
}

size_t CompilerService::artifactCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return ArtifactLRU.size();
}

void CompilerService::clearArtifacts() {
  std::lock_guard<std::mutex> Lock(M);
  ArtifactLRU.clear();
  ArtifactMap.clear();
}

void CompilerService::publishMetrics() {
  ServiceStats S = stats();
  obs::MetricsRegistry &R = obs::MetricsRegistry::global();
  R.gauge("svc.requests")->set(static_cast<int64_t>(S.Requests));
  R.gauge("svc.compiles_started")->set(static_cast<int64_t>(S.CompilesStarted));
  R.gauge("svc.deduped_inflight")->set(static_cast<int64_t>(S.DedupedInFlight));
  R.gauge("svc.artifact_hits")->set(static_cast<int64_t>(S.ArtifactHits));
  R.gauge("svc.errors")->set(static_cast<int64_t>(S.Errors));
  R.gauge("svc.artifacts_resident")->set(static_cast<int64_t>(artifactCount()));
  pset::OpCache::global().publishMetrics();
}
