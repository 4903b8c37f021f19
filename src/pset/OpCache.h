//===- pset/OpCache.h - Memoization cache for set operations -------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, sharded memoization cache for the hot Presburger operations
/// (simplify, coalesce, subtract, intersect, compose, isEmpty). Entries are
/// keyed on (operation, fingerprint(lhs), fingerprint(rhs)); the cached
/// value is the full operation result, so a hit replays the exact Relation
/// (or bool) the engine computed the first time — replayed results are
/// bit-identical to a recomputation on the same operands, which keeps
/// parallel and sequential compilations deterministic.
///
/// The cache is process-global (the compiler's phases and the parallel
/// nest analyses all share it) and mutex-striped across shards so
/// concurrent analysis threads do not serialize on one lock. Each shard
/// evicts in LRU order at a fixed capacity. `setEnabled(false)` (or the
/// environment variable DHPF_PSET_CACHE=0) turns the whole performance
/// layer off — the cache *and* the fast paths of Relation.cpp (implied-atom
/// pruning, row dedup, the universe shortcut, ordered subtraction and the
/// fingerprint-equality subset test) — restoring the seed engine's exact
/// behavior for debugging.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_PSET_OPCACHE_H
#define DHPF_PSET_OPCACHE_H

#include "pset/Relation.h"

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace dhpf {
namespace pset {

/// The cached operations. Unary operations hash only the lhs fingerprint.
enum class Op : uint8_t {
  Simplify,
  Coalesce,
  Subtract,
  Intersect,
  Compose,
  IsEmpty,
};

/// Hit/miss/eviction counters plus fast-path trip counts. All counters are
/// cumulative for the process; benchmarks snapshot and subtract.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  /// isSubsetOf/isEqualTo calls short-circuited by fingerprint equality.
  uint64_t FastSubsetFP = 0;
  /// Syntactically duplicate constraint rows dropped after intersection.
  uint64_t DupRowsRemoved = 0;
  /// Subtract branches skipped because the minuend conjunct syntactically
  /// implied the atom being negated (the branch is provably empty).
  uint64_t FastImpliedAtom = 0;
  // Always zero. Kept only because perfbench/src/CompileLayers.cpp reads
  // them, and that file changes only together with the benchmark.
  uint64_t InternLookups = 0;
  uint64_t InternHits = 0;

  double hitRate() const {
    uint64_t T = Hits + Misses;
    return T == 0 ? 0.0 : static_cast<double>(Hits) / static_cast<double>(T);
  }
  CacheStats operator-(const CacheStats &O) const {
    CacheStats R;
    R.Hits = Hits - O.Hits;
    R.Misses = Misses - O.Misses;
    R.Evictions = Evictions - O.Evictions;
    R.FastSubsetFP = FastSubsetFP - O.FastSubsetFP;
    R.DupRowsRemoved = DupRowsRemoved - O.DupRowsRemoved;
    R.FastImpliedAtom = FastImpliedAtom - O.FastImpliedAtom;
    return R;
  }
};

class OpCache {
public:
  /// The process-global cache instance (lazily constructed; honors
  /// DHPF_PSET_CACHE=0 at first use).
  static OpCache &global();

  explicit OpCache(size_t Capacity = kDefaultCapacity);

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool E) { Enabled.store(E, std::memory_order_relaxed); }

  /// Looks up a Relation-valued operation; copies the cached result into
  /// \p Out on a hit. Counts a hit or miss.
  bool lookup(Op O, uint64_t LhsFP, uint64_t RhsFP, Relation &Out);
  /// Inserts a Relation-valued result (evicting LRU entries at capacity).
  void insert(Op O, uint64_t LhsFP, uint64_t RhsFP, const Relation &R);

  /// Bool-valued variant (isEmpty).
  bool lookupBool(Op O, uint64_t LhsFP, bool &Out);
  void insertBool(Op O, uint64_t LhsFP, bool V);

  /// Drops all entries (counters are kept; see statsReset).
  void clear();

  /// Writes every resident entry as versioned text (relations in the
  /// parser's own syntax, length-prefixed). Shards are walked LRU-first so
  /// a deserialize() replays insertions in recency order and reproduces
  /// each shard's eviction order exactly.
  void serialize(std::ostream &OS);

  /// Reloads a serialize() image into the cache (on top of whatever is
  /// resident; normal capacity eviction applies). Hit/miss counters are
  /// untouched — a reloaded cache scores its first post-reload lookups
  /// exactly like the process that wrote the image would have. Returns
  /// false with \p Err set on a malformed or version-mismatched image,
  /// loading nothing.
  bool deserialize(std::istream &IS, std::string *Err);

  /// Total resident entries across all shards.
  size_t entryCount();

  CacheStats stats() const;

  /// Per-shard traffic, for load-balance diagnostics. Entries is the
  /// shard's current resident count.
  struct ShardStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t Entries = 0;
  };
  static constexpr size_t numShards() { return kNumShards; }
  std::vector<ShardStats> perShardStats();

  /// Mirrors the cumulative counters (global and per shard) into the
  /// process-global obs::MetricsRegistry under "pset.cache.*". Gauges, so
  /// repeated publication overwrites rather than double-counts.
  void publishMetrics();

  // Fast-path accounting (the fast paths live in Relation.cpp).
  void noteFastSubset() {
    NFastSubset.fetch_add(1, std::memory_order_relaxed);
  }
  void noteDupRows(uint64_t N) {
    NDupRows.fetch_add(N, std::memory_order_relaxed);
  }
  void noteImpliedAtom() {
    NImpliedAtom.fetch_add(1, std::memory_order_relaxed);
  }

private:
  static constexpr size_t kNumShards = 16;
  static constexpr size_t kDefaultCapacity = 8192;

  struct Key {
    uint8_t O;
    uint64_t A;
    uint64_t B;
    bool operator==(const Key &K) const {
      return O == K.O && A == K.A && B == K.B;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      uint64_t H = K.A * 0x9e3779b97f4a7c15ULL;
      H ^= K.B + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
      return static_cast<size_t>(H ^ (static_cast<uint64_t>(K.O) << 56));
    }
  };
  struct Value {
    Relation R;
    bool B = false;
  };
  struct Shard {
    std::mutex M;
    /// Front = most recently used.
    std::list<std::pair<Key, Value>> LRU;
    std::unordered_map<Key, std::list<std::pair<Key, Value>>::iterator,
                       KeyHash>
        Map;
    // Per-shard traffic, bumped under M (plain fields, no atomics needed).
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
  };

  Shard &shardFor(const Key &K) {
    return Shards[KeyHash()(K) % kNumShards];
  }
  bool lookupImpl(const Key &K, Value &Out);
  void insertImpl(const Key &K, Value V);

  Shard Shards[kNumShards];
  size_t PerShardCapacity;
  std::atomic<bool> Enabled{true};
  std::atomic<uint64_t> NHits{0}, NMisses{0}, NEvictions{0};
  std::atomic<uint64_t> NFastSubset{0}, NDupRows{0}, NImpliedAtom{0};
};

} // namespace pset
} // namespace dhpf

#endif // DHPF_PSET_OPCACHE_H
