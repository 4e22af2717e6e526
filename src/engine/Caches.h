//===- engine/Caches.h - Sharded, bounded cross-run caches ------*- C++ -*-===//
//
// Part of the Regel reproduction. Thread-safe sharded implementations of
// the two cache seams the synthesis layers expose:
//
//   * (sketch, depth, widened) -> over/under approximation
//     (synth/Approximate's SketchApproxStore): approximations are
//     example-independent, so concurrent jobs over a corpus that reuses
//     sketches share them outright.
//
//   * (canonical formula, domains) -> Sat/Unsat verdict (smt/Solver's
//     VerdictStore): constant-inference queries repeat heavily across
//     jobs that share sketches and example lengths, and hash-consing
//     makes the key O(1) to hash and compare. Each shard additionally
//     keeps a small ring of known-Unsat keys so a query whose conjunct
//     set merely CONTAINS a known-Unsat core is answered without any
//     search (adding conjuncts only removes models). The ring scan's
//     subset tests run on a snapshot taken under the shard lock and
//     released before testing — no smt:: call ever executes under a
//     cache mutex.
//
// Sharding bounds lock contention: keys hash to one of N independently
// locked maps, so workers rarely collide on a mutex.
//
// Both stores are bounded (CacheLimits): each shard keeps its entries on a
// recency list and evicts from the cold end when a cap is exceeded, so a
// serving process can stay up indefinitely without the memo growth that
// otherwise accumulates one entry per distinct sketch or formula ever
// seen.
//
// Eviction is second-chance (scan-resistant) LRU: an entry that has been
// hit since it last reached the cold end is cycled back with its
// reference bit cleared instead of evicted. Synthesis workloads are
// mostly one-touch scans (each job publishes many job-specific entries
// it will only ever look up itself), with a small cross-job core that is
// re-referenced constantly; under pure LRU the scan flushes that core,
// under second-chance it stays resident.
//
// Eviction is transparent to correctness: a re-looked-up evicted entry
// is just recomputed (approximation and solving are deterministic), it
// only costs the recomputation time.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_ENGINE_CACHES_H
#define REGEL_ENGINE_CACHES_H

#include "smt/Solver.h"
#include "support/Mutex.h"
#include "synth/Approximate.h"

#include <atomic>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

namespace regel::engine {

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

/// splitmix64 finalizer: a cheap full-avalanche mix so shard selection
/// depends on every bit of a key hash, not just the low ones.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// A sharded, thread-safe, LRU-bounded (sketch, depth, widened) ->
/// approximation memo.
class ShardedApproxStore : public SketchApproxStore {
public:
  explicit ShardedApproxStore(unsigned NumShards = 16,
                              CacheLimits Limits = {});

  bool lookup(const SketchPtr &S, unsigned Depth, bool WithClasses,
              Approx &Out) override;
  void publish(const SketchPtr &S, unsigned Depth, bool WithClasses,
               const Approx &A) override;

  size_t size() const;
  void clear();

  const CacheLimits &limits() const { return Limits; }

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }

  /// The combined key hash (exposed so tests can check shard balance).
  /// Depth and the widened flag are folded through mix64 rather than
  /// XORed in raw: consecutive depths must not perturb only the low bits
  /// that pick the shard.
  static size_t hashKey(const SketchPtr &S, unsigned Depth,
                        bool WithClasses) {
    uint64_t Fields =
        (static_cast<uint64_t>(Depth) << 1) | (WithClasses ? 1u : 0u);
    return static_cast<size_t>(
        mix64(static_cast<uint64_t>(S->hash()) ^ mix64(Fields)));
  }

private:
  struct Key {
    SketchPtr S;
    unsigned Depth;
    bool WithClasses;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      return hashKey(K.S, K.Depth, K.WithClasses);
    }
  };
  struct KeyEq {
    bool operator()(const Key &A, const Key &B) const {
      return A.Depth == B.Depth && A.WithClasses == B.WithClasses &&
             sketchEquals(A.S, B.S);
    }
  };
  struct Entry {
    Key K;
    Approx A;
    bool Hot = false; ///< hit since it last reached the cold end
  };
  struct Shard {
    mutable Mutex M;
    std::list<Entry> Lru REGEL_GUARDED_BY(M); ///< front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash, KeyEq>
        Map REGEL_GUARDED_BY(M);
  };

  Shard &shardFor(const SketchPtr &S, unsigned Depth, bool WithClasses);
  void evictOverLocked(Shard &S) REGEL_REQUIRES(S.M);

  std::vector<std::unique_ptr<Shard>> Shards;
  CacheLimits Limits;
  size_t MaxEntriesPerShard = 0;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Evictions{0};
};

/// A sharded, thread-safe, LRU-bounded (canonical formula, domains) ->
/// Sat/Unsat verdict store — the engine-side implementation of
/// smt::VerdictStore. Verdicts are facts (solving is deterministic and
/// a Sat model is the DFS's unique smallest model), so eviction only
/// costs a re-solve.
class ShardedSmtCache : public smt::VerdictStore {
public:
  explicit ShardedSmtCache(unsigned NumShards = 16, CacheLimits Limits = {});

  bool lookup(const smt::FormulaPtr &F,
              const std::vector<smt::Interval> &Domains,
              smt::SolveResult &Out) override;
  void publish(const smt::FormulaPtr &F,
               const std::vector<smt::Interval> &Domains,
               const smt::SolveResult &R) override;

  size_t size() const;
  void clear();

  const CacheLimits &limits() const { return Limits; }

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }

  /// Lookups answered Unsat by the implication ring rather than an exact
  /// entry (counted separately from hits; a lookup is exactly one of
  /// hit, implied hit, or miss).
  uint64_t impliedHits() const {
    return ImpliedHits.load(std::memory_order_relaxed);
  }

  /// The combined key hash (exposed so tests can check shard balance).
  /// Hash-consing makes the formula component O(1); the domain vector is
  /// folded through mix64 so shard choice sees every bound.
  static size_t hashKey(const smt::FormulaPtr &F,
                        const std::vector<smt::Interval> &Domains);

private:
  struct Key {
    smt::FormulaPtr F;
    std::vector<smt::Interval> D;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const { return hashKey(K.F, K.D); }
  };
  struct KeyEq {
    bool operator()(const Key &A, const Key &B) const {
      // Interning makes structural formula equality pointer equality.
      return A.F == B.F && A.D == B.D;
    }
  };
  struct Entry {
    Key K;
    smt::SolveResult R;
    bool Hot = false; ///< hit since it last reached the cold end
  };
  struct Shard {
    mutable Mutex M;
    std::list<Entry> Lru REGEL_GUARDED_BY(M); ///< front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash, KeyEq>
        Map REGEL_GUARDED_BY(M);
  };

  static constexpr size_t UnsatRingCap = 32;

  Shard &shardFor(const smt::FormulaPtr &F,
                  const std::vector<smt::Interval> &Domains);
  void evictOverLocked(Shard &S) REGEL_REQUIRES(S.M);

  /// Bounded overwrite-oldest ring of keys published Unsat, global to
  /// the cache: an exact lookup shards by its OWN (formula, domains)
  /// hash, so a superset query lands in a different shard than the core
  /// that refutes it — a per-shard ring would almost never be consulted
  /// by the lookups it can answer. Its own leaf mutex, never held
  /// together with a shard lock. Advisory: a ring entry outliving its
  /// LRU twin stays sound (Unsat is a fact about the formula), and
  /// overwriting one only loses a short-circuit.
  Mutex RingM;
  std::vector<Key> UnsatRing REGEL_GUARDED_BY(RingM);
  size_t UnsatNext REGEL_GUARDED_BY(RingM) = 0;

  std::vector<std::unique_ptr<Shard>> Shards;
  CacheLimits Limits;
  size_t MaxEntriesPerShard = 0;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> ImpliedHits{0};
  std::atomic<uint64_t> Evictions{0};
};

/// The caches one engine (or several engines, when passed explicitly)
/// share across all jobs.
struct SharedCaches {
  explicit SharedCaches(unsigned NumShards = 16, CacheLimits ApproxLimits = {},
                        CacheLimits SmtLimits = {})
      : Approx(NumShards, ApproxLimits), Smt(NumShards, SmtLimits) {}

  ShardedApproxStore Approx;
  ShardedSmtCache Smt;
};

} // namespace regel::engine

#endif // REGEL_ENGINE_CACHES_H
