//===- engine/Caches.cpp --------------------------------------------------===//

#include "engine/Caches.h"

#include <algorithm>

using namespace regel;
using namespace regel::engine;

namespace {

/// Splits a global cap over \p NumShards: floored (so the global figure is
/// an upper bound), but never below one entry per shard.
template <typename T> T perShard(T GlobalCap, size_t NumShards) {
  if (GlobalCap == 0)
    return 0;
  return std::max<T>(1, GlobalCap / static_cast<T>(NumShards));
}

} // namespace

//===----------------------------------------------------------------------===//
// ShardedApproxStore
//===----------------------------------------------------------------------===//

ShardedApproxStore::ShardedApproxStore(unsigned NumShards, CacheLimits L)
    : Limits(L) {
  NumShards = std::max(1u, NumShards);
  Shards.reserve(NumShards);
  for (unsigned I = 0; I < NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
  // Approximations are small and uniform, so MaxCost degenerates to a
  // second entry cap: the effective cap is the tighter of the two.
  size_t Cap = Limits.MaxEntries;
  if (Limits.MaxCost &&
      (Cap == 0 || static_cast<size_t>(Limits.MaxCost) < Cap))
    Cap = static_cast<size_t>(Limits.MaxCost);
  MaxEntriesPerShard = perShard(Cap, Shards.size());
}

ShardedApproxStore::Shard &
ShardedApproxStore::shardFor(const SketchPtr &S, unsigned Depth,
                             bool WithClasses) {
  return *Shards[hashKey(S, Depth, WithClasses) % Shards.size()];
}

void ShardedApproxStore::evictOverLocked(Shard &S) {
  // Evict cold entries until the cap holds. Second chance: a
  // hit-since-last-sweep entry reaching the cold end is recycled once
  // (reference bit cleared) rather than evicted, so one-touch scan
  // traffic cannot flush the re-referenced core. Recycles are bounded by
  // the list length at entry, which guarantees termination.
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

bool ShardedApproxStore::lookup(const SketchPtr &S, unsigned Depth,
                                bool WithClasses, Approx &Out) {
  Shard &Sh = shardFor(S, Depth, WithClasses);
  MutexLock Guard(Sh.M);
  auto It = Sh.Map.find({S, Depth, WithClasses});
  if (It == Sh.Map.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  It->second->Hot = true;
  Sh.Lru.splice(Sh.Lru.begin(), Sh.Lru, It->second); // LRU touch
  Out = It->second->A;
  return true;
}

void ShardedApproxStore::publish(const SketchPtr &S, unsigned Depth,
                                 bool WithClasses, const Approx &A) {
  Shard &Sh = shardFor(S, Depth, WithClasses);
  MutexLock Guard(Sh.M);
  Key K{S, Depth, WithClasses};
  auto It = Sh.Map.find(K);
  if (It != Sh.Map.end()) {
    // Duplicate publish = a second run needed this entry: count it as a
    // reference, like a lookup hit.
    It->second->Hot = true;
    Sh.Lru.splice(Sh.Lru.begin(), Sh.Lru, It->second);
    return;
  }
  Sh.Lru.push_front(Entry{K, A});
  Sh.Map.emplace(std::move(K), Sh.Lru.begin());
  evictOverLocked(Sh);
}

//===----------------------------------------------------------------------===//
// ShardedSmtCache
//===----------------------------------------------------------------------===//

size_t ShardedSmtCache::hashKey(const smt::FormulaPtr &F,
                                const std::vector<smt::Interval> &Domains) {
  uint64_t H = mix64(static_cast<uint64_t>(F->hash()));
  for (const auto &I : Domains)
    H = mix64(H ^ mix64(static_cast<uint64_t>(I.Lo) * 0x9e3779b97f4a7c15ull ^
                        static_cast<uint64_t>(I.Hi)));
  return static_cast<size_t>(H);
}

ShardedSmtCache::ShardedSmtCache(unsigned NumShards, CacheLimits L)
    : Limits(L) {
  NumShards = std::max(1u, NumShards);
  Shards.reserve(NumShards);
  for (unsigned I = 0; I < NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
  // A verdict is a status plus a handful of int64s — small and uniform —
  // so MaxCost degenerates to a second entry cap, like the approx store.
  size_t Cap = Limits.MaxEntries;
  if (Limits.MaxCost &&
      (Cap == 0 || static_cast<size_t>(Limits.MaxCost) < Cap))
    Cap = static_cast<size_t>(Limits.MaxCost);
  MaxEntriesPerShard = perShard(Cap, Shards.size());
}

ShardedSmtCache::Shard &
ShardedSmtCache::shardFor(const smt::FormulaPtr &F,
                          const std::vector<smt::Interval> &Domains) {
  return *Shards[hashKey(F, Domains) % Shards.size()];
}

void ShardedSmtCache::evictOverLocked(Shard &S) {
  // Same second-chance sweep as the other stores. The implication ring
  // is deliberately NOT synchronized with the LRU: its entries stay
  // valid forever (Unsat is a property of the formula, not a cached
  // computation), so eviction here never has to touch it.
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

bool ShardedSmtCache::lookup(const smt::FormulaPtr &F,
                             const std::vector<smt::Interval> &Domains,
                             smt::SolveResult &Out) {
  Shard &Sh = shardFor(F, Domains);
  // Candidate Unsat cores with matching domains are snapshotted under
  // the ring lock; the subset tests (which walk formula structure) run
  // after both locks are released so no smt operation executes inside a
  // cache critical section. Keys are shared_ptrs to immutable formulas,
  // so the snapshot stays valid after unlock.
  std::vector<smt::FormulaPtr> Cores;
  {
    MutexLock Guard(Sh.M);
    auto It = Sh.Map.find(Key{F, Domains});
    if (It != Sh.Map.end()) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      It->second->Hot = true;
      Sh.Lru.splice(Sh.Lru.begin(), Sh.Lru, It->second); // LRU touch
      Out = It->second->R;
      return true;
    }
  }
  {
    MutexLock Guard(RingM);
    for (const Key &U : UnsatRing)
      if (U.F != F && U.D == Domains)
        Cores.push_back(U.F);
  }
  for (const smt::FormulaPtr &Core : Cores) {
    if (smt::conjSubset(Core, F)) {
      ImpliedHits.fetch_add(1, std::memory_order_relaxed);
      Out = {smt::SolveStatus::Unsat, {}};
      return true;
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ShardedSmtCache::publish(const smt::FormulaPtr &F,
                              const std::vector<smt::Interval> &Domains,
                              const smt::SolveResult &R) {
  // A budget-truncated search is about the budget, not the formula.
  if (R.Status == smt::SolveStatus::ResourceOut)
    return;
  // Classified before the critical section so no smt:: name appears
  // inside it (house lock-discipline: cache mutexes are leaf-level).
  const bool IsUnsat = R.Status == smt::SolveStatus::Unsat;
  Shard &Sh = shardFor(F, Domains);
  Key K{F, Domains};
  {
    MutexLock Guard(Sh.M);
    auto It = Sh.Map.find(K);
    if (It != Sh.Map.end()) {
      // Duplicate publish = a second run needed this entry: count it as
      // a reference, like a lookup hit.
      It->second->Hot = true;
      Sh.Lru.splice(Sh.Lru.begin(), Sh.Lru, It->second);
      return;
    }
    Sh.Lru.push_front(Entry{K, R});
    Sh.Map.emplace(K, Sh.Lru.begin());
    evictOverLocked(Sh);
  }
  if (IsUnsat) {
    // Ring insert under its own lock, after the shard lock is released
    // (the two are never nested). A racing duplicate publish that took
    // the early return above never reaches here, so one core enters the
    // ring at most once per residency.
    MutexLock Guard(RingM);
    if (UnsatRing.size() < UnsatRingCap) {
      UnsatRing.push_back(std::move(K));
    } else {
      UnsatRing[UnsatNext] = std::move(K);
      UnsatNext = (UnsatNext + 1) % UnsatRingCap;
    }
  }
}

size_t ShardedSmtCache::size() const {
  size_t Total = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    MutexLock Guard(S->M);
    Total += S->Map.size();
  }
  return Total;
}

void ShardedSmtCache::clear() {
  for (std::unique_ptr<Shard> &S : Shards) {
    MutexLock Guard(S->M);
    S->Map.clear();
    S->Lru.clear();
  }
  MutexLock Guard(RingM);
  UnsatRing.clear();
  UnsatNext = 0;
}

size_t ShardedApproxStore::size() const {
  size_t Total = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    MutexLock Guard(S->M);
    Total += S->Map.size();
  }
  return Total;
}

void ShardedApproxStore::clear() {
  for (std::unique_ptr<Shard> &S : Shards) {
    MutexLock Guard(S->M);
    S->Map.clear();
    S->Lru.clear();
  }
}
