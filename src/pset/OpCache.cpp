//===- pset/OpCache.cpp - Memoization cache for set operations -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "pset/OpCache.h"

#include "obs/Metrics.h"
#include "support/Diag.h"

#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

using namespace dhpf;
using namespace dhpf::pset;

OpCache &OpCache::global() {
  static OpCache C;
  static bool EnvChecked = [] {
    if (const char *Env = std::getenv("DHPF_PSET_CACHE"))
      if (Env[0] == '0' && Env[1] == '\0')
        C.setEnabled(false);
    return true;
  }();
  (void)EnvChecked;
  return C;
}

OpCache::OpCache(size_t Capacity)
    : PerShardCapacity(Capacity / kNumShards ? Capacity / kNumShards : 1) {}

bool OpCache::lookupImpl(const Key &K, Value &Out) {
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(K);
  if (It == S.Map.end()) {
    NMisses.fetch_add(1, std::memory_order_relaxed);
    ++S.Misses;
    return false;
  }
  S.LRU.splice(S.LRU.begin(), S.LRU, It->second);
  Out = It->second->second;
  NHits.fetch_add(1, std::memory_order_relaxed);
  ++S.Hits;
  return true;
}

void OpCache::insertImpl(const Key &K, Value V) {
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(K);
  if (It != S.Map.end()) {
    // Another thread computed the same key first; results for equal keys
    // are identical, so keep the existing entry.
    S.LRU.splice(S.LRU.begin(), S.LRU, It->second);
    return;
  }
  S.LRU.emplace_front(K, std::move(V));
  S.Map.emplace(K, S.LRU.begin());
  while (S.LRU.size() > PerShardCapacity) {
    S.Map.erase(S.LRU.back().first);
    S.LRU.pop_back();
    NEvictions.fetch_add(1, std::memory_order_relaxed);
    ++S.Evictions;
  }
}

bool OpCache::lookup(Op O, uint64_t LhsFP, uint64_t RhsFP, Relation &Out) {
  Value V;
  if (!lookupImpl({static_cast<uint8_t>(O), LhsFP, RhsFP}, V))
    return false;
  Out = std::move(V.R);
  return true;
}

void OpCache::insert(Op O, uint64_t LhsFP, uint64_t RhsFP,
                     const Relation &R) {
  Value V;
  V.R = R;
  insertImpl({static_cast<uint8_t>(O), LhsFP, RhsFP}, std::move(V));
}

bool OpCache::lookupBool(Op O, uint64_t LhsFP, bool &Out) {
  Value V;
  if (!lookupImpl({static_cast<uint8_t>(O), LhsFP, 0}, V))
    return false;
  Out = V.B;
  return true;
}

void OpCache::insertBool(Op O, uint64_t LhsFP, bool B) {
  Value V;
  V.B = B;
  insertImpl({static_cast<uint8_t>(O), LhsFP, 0}, std::move(V));
}

void OpCache::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    S.LRU.clear();
    S.Map.clear();
  }
}

size_t OpCache::entryCount() {
  size_t N = 0;
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    N += S.LRU.size();
  }
  return N;
}

void OpCache::serialize(std::ostream &OS) {
  // Snapshot under the shard locks, emit outside them. Each shard's LRU
  // list is walked back-to-front (least recent first) so that replaying
  // the entries through insertImpl — which pushes to the front — rebuilds
  // the same recency order.
  struct Entry {
    Key K;
    bool IsBool = false;
    bool B = false;
    std::string Rel;
  };
  std::vector<Entry> Entries;
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    for (auto It = S.LRU.rbegin(); It != S.LRU.rend(); ++It) {
      Entry E;
      E.K = It->first;
      E.IsBool = It->first.O == static_cast<uint8_t>(Op::IsEmpty);
      if (E.IsBool)
        E.B = It->second.B;
      else
        E.Rel = It->second.R.toString();
      Entries.push_back(std::move(E));
    }
  }
  OS << "dhpf-opcache v1 " << Entries.size() << "\n";
  for (const Entry &E : Entries) {
    if (E.IsBool) {
      OS << "bool " << unsigned(E.K.O) << " " << std::hex << E.K.A
         << std::dec << " " << (E.B ? 1 : 0) << "\n";
    } else {
      OS << "rel " << unsigned(E.K.O) << " " << std::hex << E.K.A << " "
         << E.K.B << std::dec << " " << E.Rel.size() << "\n"
         << E.Rel << "\n";
    }
  }
}

bool OpCache::deserialize(std::istream &IS, std::string *Err) {
  auto Fail = [&](const std::string &Why) {
    if (Err)
      *Err = "opcache image: " + Why;
    return false;
  };
  std::string Tag, Ver;
  size_t N = 0;
  if (!(IS >> Tag >> Ver >> N) || Tag != "dhpf-opcache")
    return Fail("missing 'dhpf-opcache' header");
  if (Ver != "v1")
    return Fail("unsupported version '" + Ver + "'");
  IS.ignore(1); // the newline after the header
  // Parse everything before touching the cache: a truncated or corrupted
  // image loads nothing rather than a silent prefix.
  std::vector<std::pair<Key, Value>> Entries;
  Entries.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    std::string Kind;
    unsigned O = 0;
    if (!(IS >> Kind >> O) || O > static_cast<unsigned>(Op::IsEmpty))
      return Fail("truncated at entry " + std::to_string(I));
    Key K{static_cast<uint8_t>(O), 0, 0};
    Value V;
    if (Kind == "bool") {
      int B = 0;
      if (!(IS >> std::hex >> K.A >> std::dec >> B))
        return Fail("malformed bool entry " + std::to_string(I));
      V.B = B != 0;
    } else if (Kind == "rel") {
      size_t Len = 0;
      if (!(IS >> std::hex >> K.A >> K.B >> std::dec >> Len))
        return Fail("malformed rel entry " + std::to_string(I));
      IS.ignore(1);
      std::string Text(Len, '\0');
      if (!IS.read(Text.data(), static_cast<std::streamsize>(Len)))
        return Fail("truncated relation text at entry " + std::to_string(I));
      DiagnosticEngine Diags;
      Expected<Relation> R =
          parseRelation(Text, Diags, "<opcache entry " + std::to_string(I) + ">");
      if (!R)
        return Fail("unparsable relation at entry " + std::to_string(I) +
                    ": " + Diags.str());
      V.R = std::move(R).take();
    } else {
      return Fail("unknown entry kind '" + Kind + "'");
    }
    Entries.emplace_back(K, std::move(V));
  }
  for (auto &E : Entries)
    insertImpl(E.first, std::move(E.second));
  return true;
}

std::vector<OpCache::ShardStats> OpCache::perShardStats() {
  std::vector<ShardStats> Out(kNumShards);
  for (size_t I = 0; I != kNumShards; ++I) {
    Shard &S = Shards[I];
    std::lock_guard<std::mutex> Lock(S.M);
    Out[I].Hits = S.Hits;
    Out[I].Misses = S.Misses;
    Out[I].Evictions = S.Evictions;
    Out[I].Entries = S.LRU.size();
  }
  return Out;
}

void OpCache::publishMetrics() {
  using obs::MetricsRegistry;
  MetricsRegistry &R = MetricsRegistry::global();
  CacheStats T = stats();
  R.gauge("pset.cache.hits")->set(static_cast<int64_t>(T.Hits));
  R.gauge("pset.cache.misses")->set(static_cast<int64_t>(T.Misses));
  R.gauge("pset.cache.evictions")->set(static_cast<int64_t>(T.Evictions));
  R.gauge("pset.cache.fast_subset_fp")
      ->set(static_cast<int64_t>(T.FastSubsetFP));
  R.gauge("pset.cache.dup_rows_removed")
      ->set(static_cast<int64_t>(T.DupRowsRemoved));
  R.gauge("pset.cache.fast_implied_atom")
      ->set(static_cast<int64_t>(T.FastImpliedAtom));
  std::vector<ShardStats> PS = perShardStats();
  for (size_t I = 0; I != PS.size(); ++I) {
    std::string P = "pset.cache.shard." + std::to_string(I);
    R.gauge(P + ".hits")->set(static_cast<int64_t>(PS[I].Hits));
    R.gauge(P + ".misses")->set(static_cast<int64_t>(PS[I].Misses));
    R.gauge(P + ".evictions")->set(static_cast<int64_t>(PS[I].Evictions));
    R.gauge(P + ".entries")->set(static_cast<int64_t>(PS[I].Entries));
  }
}

CacheStats OpCache::stats() const {
  CacheStats S;
  S.Hits = NHits.load(std::memory_order_relaxed);
  S.Misses = NMisses.load(std::memory_order_relaxed);
  S.Evictions = NEvictions.load(std::memory_order_relaxed);
  S.FastSubsetFP = NFastSubset.load(std::memory_order_relaxed);
  S.DupRowsRemoved = NDupRows.load(std::memory_order_relaxed);
  S.FastImpliedAtom = NImpliedAtom.load(std::memory_order_relaxed);
  return S;
}
