//===- support/ShardedLru.h - Sharded bounded memo --------------*- C++ -*-===//
//
// Part of the Regel reproduction. The one cross-run memo primitive: a map
// split into N independently locked shards (so workers rarely collide on
// a mutex), each bounded by a second-chance LRU. Both of the engine's
// stores are instantiations: the approximation store in
// synth/Approximate.h and the SMT verdict store in smt/Satisfiable.h.
//
// Identity is the full key: Hash only picks the shard and the bucket,
// and a hit requires Eq. Each shard's mutex is a leaf: only the map and
// list operations here run under it.
//
// Eviction is second-chance (scan-resistant) LRU: an entry hit since it
// last reached the cold end is cycled back with its reference bit
// cleared instead of evicted. Synthesis traffic is mostly one-touch
// scans plus a small cross-job core that is re-referenced constantly;
// pure LRU would let the scan flush that core. Values must be
// deterministic functions of their keys, so an evicted entry is simply
// recomputed.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SUPPORT_SHARDEDLRU_H
#define REGEL_SUPPORT_SHARDEDLRU_H

#include "support/Hash.h"
#include "support/Mutex.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

namespace regel {

/// Size limits for one sharded store; zero means unlimited. Caps are
/// enforced per shard (global cap / shard count, floored, at least 1), so
/// the global figure is a firm upper bound whenever it is at least the
/// shard count, and approximate below that.
struct CacheLimits {
  /// Maximum entries across all shards.
  size_t MaxEntries = 0;

  /// Maximum summed entry cost across all shards. Every store counts 1
  /// per entry, so this is a second entry cap (the tighter one applies).
  uint64_t MaxCost = 0;
};

/// A sharded, thread-safe, second-chance-LRU-bounded Key -> Value memo.
/// Counts hits, misses and evictions; a lookup is exactly one of a hit or
/// a miss.
template <typename Key, typename Value, typename Hash, typename Eq>
class ShardedLru {
public:
  explicit ShardedLru(unsigned NumShards = 16, CacheLimits Limits = {}) {
    NumShards = std::max(1u, NumShards);
    Shards.reserve(NumShards);
    for (unsigned I = 0; I < NumShards; ++I)
      Shards.push_back(std::make_unique<Shard>());
    // Entries are small and uniform, so MaxCost degenerates to a second
    // entry cap: the effective cap is the tighter of the two.
    size_t Cap = Limits.MaxEntries;
    if (Limits.MaxCost &&
        (Cap == 0 || static_cast<size_t>(Limits.MaxCost) < Cap))
      Cap = static_cast<size_t>(Limits.MaxCost);
    if (Cap)
      MaxEntriesPerShard = std::max<size_t>(1, Cap / Shards.size());
  }

  /// Returns true and fills \p Out when an entry for \p K is resident.
  bool lookup(const Key &K, Value &Out) {
    Shard &S = shardFor(K);
    MutexLock Guard(S.M);
    auto It = S.Map.find(K);
    if (It == S.Map.end()) {
      Misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Hits.fetch_add(1, std::memory_order_relaxed);
    It->second->Hot = true;
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second); // LRU touch
    Out = It->second->V;
    return true;
  }

  /// Offers a freshly computed value. A duplicate publish means a second
  /// run needed this entry, so it counts as a reference, like a hit; the
  /// resident value is kept.
  void publish(Key K, Value V) {
    Shard &S = shardFor(K);
    MutexLock Guard(S.M);
    auto It = S.Map.find(K);
    if (It != S.Map.end()) {
      It->second->Hot = true;
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
      return;
    }
    S.Lru.push_front(Entry{K, std::move(V)});
    S.Map.emplace(std::move(K), S.Lru.begin());
    evictOverLocked(S);
  }

  size_t size() const {
    size_t Total = 0;
    for (const std::unique_ptr<Shard> &S : Shards) {
      MutexLock Guard(S->M);
      Total += S->Map.size();
    }
    return Total;
  }

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }

private:
  struct Entry {
    Key K;
    Value V;
    bool Hot = false; ///< hit since it last reached the cold end
  };
  using LruList = std::list<Entry>;
  struct Shard {
    mutable Mutex M;
    LruList Lru REGEL_GUARDED_BY(M); ///< front = most recently used
    std::unordered_map<Key, typename LruList::iterator, Hash, Eq>
        Map REGEL_GUARDED_BY(M);
  };

  Shard &shardFor(const Key &K) { return *Shards[Hash{}(K) % Shards.size()]; }

  /// Evicts cold entries until the shard's cap holds. Second chance: a
  /// hit-since-last-sweep entry reaching the cold end is recycled once
  /// (reference bit cleared) rather than evicted. Recycles are bounded by
  /// the list length at entry, which guarantees termination.
  void evictOverLocked(Shard &S) REGEL_REQUIRES(S.M) {
    size_t Chances = S.Lru.size();
    while (MaxEntriesPerShard && S.Map.size() > MaxEntriesPerShard &&
           !S.Lru.empty()) {
      Entry &Victim = S.Lru.back();
      if (Victim.Hot && Chances > 0) {
        --Chances;
        Victim.Hot = false;
        S.Lru.splice(S.Lru.begin(), S.Lru, std::prev(S.Lru.end()));
        continue;
      }
      S.Map.erase(Victim.K);
      S.Lru.pop_back();
      Evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<std::unique_ptr<Shard>> Shards;
  size_t MaxEntriesPerShard = 0;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Evictions{0};
};

} // namespace regel

#endif // REGEL_SUPPORT_SHARDEDLRU_H
