//===- tests/support/ShardedLruTest.cpp -----------------------------------===//
//
// The ShardedLru contract, instantiated for both cross-run stores (the
// sketch-approximation store and the SMT verdict store): round trip,
// full-key identity under a forced hash collision, second-chance
// eviction order, the per-shard cap split, and concurrent publishers.
//
//===----------------------------------------------------------------------===//

#include "support/ShardedLru.h"

#include "regex/Parser.h"
#include "sketch/SketchParser.h"
#include "smt/Satisfiable.h"
#include "synth/Approximate.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace regel;

namespace {

/// Every key lands in one bucket of one shard: identity must then come
/// from the store's equality alone.
template <typename Key> struct CollidingHash {
  size_t operator()(const Key &) const { return 42; }
};

/// The approximation store. Key I is a freshly parsed sketch (a distinct
/// object per call, so hits go through structural equality); runs of
/// four keys share the sketch and differ only in depth or widened flag.
struct ApproxStoreTraits {
  using Key = ApproxKey;
  using Value = Approx;
  using Hash = ApproxKeyHash;
  using Store = ShardedApproxStore;
  using CollidingStore =
      ShardedLru<ApproxKey, Approx, CollidingHash<ApproxKey>, ApproxKeyEq>;

  static Key key(unsigned I) {
    return {parseSketch("hole{Repeat(<num>," + std::to_string(I / 4 + 1) +
                        ")}"),
            1 + (I % 4) / 2, I % 2 == 1};
  }
  static Value value(unsigned I) {
    return {parseRegex("Repeat(<num>," + std::to_string(I + 1) + ")"),
            botRegex()};
  }
  static bool same(const Value &A, const Value &B) {
    return regexEquals(A.Over, B.Over) && regexEquals(A.Under, B.Under);
  }
};

/// The verdict store. Key I is k0 >= I over k0 in [1, 60], which is
/// satisfiable iff I <= 60.
struct VerdictStoreTraits {
  using Key = smt::VerdictKey;
  using Value = bool;
  using Hash = smt::VerdictKeyHash;
  using Store = smt::ShardedSmtCache;
  using CollidingStore =
      ShardedLru<smt::VerdictKey, bool, CollidingHash<smt::VerdictKey>,
                 smt::VerdictKeyEq>;

  static Key key(unsigned I) {
    return {smt::Formula::ge(smt::Term::var(0),
                             smt::Term::constant(static_cast<int64_t>(I))),
            {{1, 60}}};
  }
  static Value value(unsigned I) { return I <= 60; }
  static bool same(const Value &A, const Value &B) { return A == B; }
};

template <typename T> class ShardedLruTest : public ::testing::Test {
protected:
  using Value = typename T::Value;

  /// True when \p S holds the value of key \p I (marks the entry hot).
  template <typename AnyStore> static bool holds(AnyStore &S, unsigned I) {
    Value Out{};
    return S.lookup(T::key(I), Out) && T::same(Out, T::value(I));
  }
};

struct TraitsName {
  template <typename T> static std::string GetName(int) {
    return std::is_same<T, ApproxStoreTraits>::value ? "Approx" : "Verdict";
  }
};

using StoreTypes = ::testing::Types<ApproxStoreTraits, VerdictStoreTraits>;
TYPED_TEST_SUITE(ShardedLruTest, StoreTypes, TraitsName);

} // namespace

TYPED_TEST(ShardedLruTest, RoundTrip) {
  typename TypeParam::Store S(4);
  typename TypeParam::Value Out{};
  EXPECT_FALSE(S.lookup(TypeParam::key(0), Out));
  EXPECT_EQ(S.misses(), 1u);

  S.publish(TypeParam::key(0), TypeParam::value(0));
  EXPECT_EQ(S.size(), 1u);
  // An independently built equal key hits; a different key misses.
  EXPECT_TRUE(this->holds(S, 0));
  EXPECT_EQ(S.hits(), 1u);
  EXPECT_FALSE(S.lookup(TypeParam::key(1), Out));
  EXPECT_EQ(S.misses(), 2u);

  // A duplicate publish keeps one entry.
  S.publish(TypeParam::key(0), TypeParam::value(0));
  EXPECT_EQ(S.size(), 1u);
}

TYPED_TEST(ShardedLruTest, FullKeyIdentityUnderForcedHashCollision) {
  // Every key hashes alike; a store that took equal hashes for equal
  // keys would answer key 1 with key 0's value, or hold one entry.
  typename TypeParam::CollidingStore S(4);
  for (unsigned I = 0; I < 3; ++I)
    S.publish(TypeParam::key(I), TypeParam::value(I));
  EXPECT_EQ(S.size(), 3u);
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_TRUE(this->holds(S, I)) << I;
  typename TypeParam::Value Out{};
  EXPECT_FALSE(S.lookup(TypeParam::key(3), Out));
}

TYPED_TEST(ShardedLruTest, LeastRecentlyUsedIsEvictedFirst) {
  // One shard so the recency order is global and fully observable.
  typename TypeParam::Store S(1, CacheLimits{/*MaxEntries=*/2, 0});
  S.publish(TypeParam::key(0), TypeParam::value(0));
  S.publish(TypeParam::key(1), TypeParam::value(1));
  // Touch 0: 1 becomes the least recently used entry...
  EXPECT_TRUE(this->holds(S, 0));
  // ...so publishing 2 evicts 1, not 0.
  S.publish(TypeParam::key(2), TypeParam::value(2));
  EXPECT_EQ(S.size(), 2u);
  EXPECT_EQ(S.evictions(), 1u);
  EXPECT_FALSE(this->holds(S, 1));
  EXPECT_TRUE(this->holds(S, 0));
  EXPECT_TRUE(this->holds(S, 2));
}

TYPED_TEST(ShardedLruTest, SecondChanceKeepsTheReferencedCore) {
  typename TypeParam::Store S(1, CacheLimits{/*MaxEntries=*/2, 0});
  S.publish(TypeParam::key(0), TypeParam::value(0));
  S.publish(TypeParam::key(1), TypeParam::value(1));
  EXPECT_TRUE(this->holds(S, 0));
  EXPECT_TRUE(this->holds(S, 1));
  // Both residents were hit since they reached the cold end, so each is
  // recycled once with its bit cleared, and the one-touch newcomer is
  // the victim (pure LRU would have evicted 0).
  S.publish(TypeParam::key(2), TypeParam::value(2));
  EXPECT_EQ(S.evictions(), 1u);
  // The recycled entries are cold now: the next newcomer evicts the
  // older of them, 0.
  S.publish(TypeParam::key(3), TypeParam::value(3));
  EXPECT_EQ(S.evictions(), 2u);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_FALSE(this->holds(S, 2));
  EXPECT_FALSE(this->holds(S, 0));
  EXPECT_TRUE(this->holds(S, 1));
  EXPECT_TRUE(this->holds(S, 3));
}

TYPED_TEST(ShardedLruTest, CapIsSplitPerShard) {
  // 4 shards: a global cap of 8 is 2 per shard, MaxCost caps like a
  // second entry limit (the tighter applies), and a cap below the shard
  // count still keeps one entry per shard.
  const size_t NumShards = 4, Keys = 60;
  struct Case {
    CacheLimits L;
    size_t PerShard;
  };
  for (const Case &C : {Case{{8, 0}, 2}, Case{{100, 8}, 2}, Case{{2, 0}, 1}}) {
    typename TypeParam::Store S(NumShards, C.L);
    std::vector<size_t> Published(NumShards, 0);
    for (unsigned I = 0; I < Keys; ++I) {
      S.publish(TypeParam::key(I), TypeParam::value(I));
      ++Published[typename TypeParam::Hash{}(TypeParam::key(I)) % NumShards];
    }
    size_t Expected = 0;
    for (size_t P : Published)
      Expected += std::min(P, C.PerShard);
    EXPECT_EQ(S.size(), Expected);
    EXPECT_EQ(S.evictions(), Keys - Expected);
  }
}

TYPED_TEST(ShardedLruTest, ConcurrentPublishersKeepTheCapAndTheValues) {
  const size_t Cap = 32;
  typename TypeParam::Store Bounded(4, CacheLimits{Cap, 0});
  typename TypeParam::Store Unbounded(4);
  const unsigned Keys = 100;
  // Keys are built up front: the threads race on the stores alone.
  std::vector<typename TypeParam::Key> K;
  std::vector<typename TypeParam::Value> V;
  for (unsigned I = 0; I < Keys; ++I) {
    K.push_back(TypeParam::key(I));
    V.push_back(TypeParam::value(I));
  }
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned N = 0; N < 2 * Keys; ++N) {
        const unsigned I = (N + T * 31) % Keys;
        for (typename TypeParam::Store *S : {&Bounded, &Unbounded}) {
          typename TypeParam::Value Out{};
          if (S->lookup(K[I], Out))
            EXPECT_TRUE(TypeParam::same(Out, V[I])) << I;
          else
            S->publish(K[I], V[I]);
        }
        EXPECT_LE(Bounded.size(), Cap);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_LE(Bounded.size(), Cap);
  EXPECT_GT(Bounded.evictions(), 0u);
  EXPECT_EQ(Unbounded.size(), Keys);
  EXPECT_EQ(Unbounded.evictions(), 0u);
  for (unsigned I = 0; I < Keys; ++I)
    EXPECT_TRUE(this->holds(Unbounded, I)) << I;
}
