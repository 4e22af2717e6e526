//===- tests/engine/CachesTest.cpp ----------------------------------------===//

#include "engine/Caches.h"

#include "sketch/SketchParser.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace regel;
using namespace regel::engine;

TEST(ShardedApproxStore, RoundTripsByStructuralKey) {
  ShardedApproxStore Store(4);
  SketchPtr S = parseSketch("hole{Repeat(<num>,2)}");
  Approx Out;
  EXPECT_FALSE(Store.lookup(S, 1, false, Out));

  Approx A = approximateSketch(S, 1, false);
  Store.publish(S, 1, false, A);

  // Distinct sketch object, same structure: hit. Different depth or
  // widened flag: miss.
  SketchPtr S2 = parseSketch("hole{Repeat(<num>,2)}");
  EXPECT_TRUE(Store.lookup(S2, 1, false, Out));
  EXPECT_TRUE(regexEquals(Out.Over, A.Over));
  EXPECT_TRUE(regexEquals(Out.Under, A.Under));
  EXPECT_FALSE(Store.lookup(S2, 2, false, Out));
  EXPECT_FALSE(Store.lookup(S2, 1, true, Out));
}

TEST(ShardedApproxStore, MemoizedApproximationMatchesUncached) {
  ShardedApproxStore Store(4);
  std::vector<const char *> Sketches = {
      "hole{Repeat(<num>,2)}",
      "Concat(hole{<cap>},hole{RepeatAtLeast(<num>,1)})",
      "Not(hole{<num>})",
      "hole{Concat(<a>,<b>),Or(<num>,<let>)}",
  };
  for (const char *Text : Sketches) {
    SketchPtr S = parseSketch(Text);
    ASSERT_TRUE(S) << Text;
    for (unsigned Depth = 1; Depth <= 3; ++Depth) {
      Approx Plain = approximateSketch(S, Depth, false);
      Approx Memoed = approximateSketch(S, Depth, false, &Store);
      EXPECT_TRUE(regexEquals(Plain.Over, Memoed.Over)) << Text;
      EXPECT_TRUE(regexEquals(Plain.Under, Memoed.Under)) << Text;
      // Second call must be served from the store and agree.
      uint64_t HitsBefore = Store.hits();
      Approx Again = approximateSketch(S, Depth, false, &Store);
      EXPECT_GT(Store.hits(), HitsBefore);
      EXPECT_TRUE(regexEquals(Again.Over, Plain.Over)) << Text;
    }
  }
}

TEST(ShardedApproxStore, LruEvictsColdEntriesFirst) {
  // One shard so the LRU order is global and fully observable.
  ShardedApproxStore Store(1, CacheLimits{/*MaxEntries=*/2, /*MaxCost=*/0});
  SketchPtr A = parseSketch("hole{<num>}");
  SketchPtr B = parseSketch("hole{<let>}");
  SketchPtr C = parseSketch("hole{<cap>}");
  Store.publish(A, 1, false, approximateSketch(A, 1, false));
  Store.publish(B, 1, false, approximateSketch(B, 1, false));
  EXPECT_EQ(Store.size(), 2u);

  Approx Out;
  // Touch A: B becomes the least recently used entry...
  EXPECT_TRUE(Store.lookup(A, 1, false, Out));
  // ...so publishing C evicts B, not A.
  Store.publish(C, 1, false, approximateSketch(C, 1, false));
  EXPECT_EQ(Store.size(), 2u);
  EXPECT_EQ(Store.evictions(), 1u);
  EXPECT_TRUE(Store.lookup(A, 1, false, Out));
  EXPECT_FALSE(Store.lookup(B, 1, false, Out));
  EXPECT_TRUE(Store.lookup(C, 1, false, Out));
}

TEST(ShardedApproxStore, LruEvictionRespectsEntryCap) {
  ShardedApproxStore Store(1, CacheLimits{/*MaxEntries=*/2, /*MaxCost=*/0});
  SketchPtr S = parseSketch("hole{Repeat(<num>,2)}");
  for (unsigned Depth = 1; Depth <= 5; ++Depth)
    Store.publish(S, Depth, false, approximateSketch(S, Depth, false));
  EXPECT_EQ(Store.size(), 2u);
  EXPECT_EQ(Store.evictions(), 3u);
  Approx Out;
  EXPECT_FALSE(Store.lookup(S, 1, false, Out)); // evicted
  EXPECT_TRUE(Store.lookup(S, 4, false, Out));  // still resident
  EXPECT_TRUE(Store.lookup(S, 5, false, Out));
}

TEST(ShardedApproxStore, KeyHashSpreadsConsecutiveDepthsAcrossShards) {
  // The old hash XORed (Depth << 1) straight into the sketch hash, so the
  // 16-way shard pick (low 4 bits) saw at most 8 distinct values over any
  // run of consecutive depths — half the shards could never be used by a
  // depth sweep of one sketch. The mixed hash must not have that ceiling.
  const size_t NumShards = 16;
  SketchPtr S = parseSketch("hole{Repeat(<num>,2)}");
  std::vector<unsigned> Load(NumShards, 0);
  unsigned Distinct = 0;
  for (unsigned Depth = 0; Depth < 16; ++Depth)
    for (bool WithClasses : {false, true}) {
      size_t Shard =
          ShardedApproxStore::hashKey(S, Depth, WithClasses) % NumShards;
      if (Load[Shard]++ == 0)
        ++Distinct;
    }
  EXPECT_GT(Distinct, 8u) << "depth sweep stuck on a subset of shards";
  for (size_t I = 0; I < NumShards; ++I)
    EXPECT_LE(Load[I], 8u) << "shard " << I << " absorbed most keys";

  // And across several sketches the spread must cover nearly everything.
  std::vector<const char *> Sketches = {
      "hole{Repeat(<num>,2)}",
      "Concat(hole{<cap>},hole{RepeatAtLeast(<num>,1)})",
      "Not(hole{<num>})",
      "hole{Concat(<a>,<b>),Or(<num>,<let>)}",
  };
  std::fill(Load.begin(), Load.end(), 0u);
  Distinct = 0;
  for (const char *Text : Sketches) {
    SketchPtr Sk = parseSketch(Text);
    ASSERT_TRUE(Sk) << Text;
    for (unsigned Depth = 0; Depth < 8; ++Depth)
      for (bool WithClasses : {false, true}) {
        size_t Shard =
            ShardedApproxStore::hashKey(Sk, Depth, WithClasses) % NumShards;
        if (Load[Shard]++ == 0)
          ++Distinct;
      }
  }
  EXPECT_GE(Distinct, 12u);
}

namespace {

smt::FormulaPtr geAtom(int64_t Bound) {
  return smt::Formula::ge(smt::Term::var(0), smt::Term::constant(Bound));
}

smt::SolveResult satResult(int64_t K0) {
  smt::SolveResult R;
  R.Status = smt::SolveStatus::Sat;
  R.Assignment = {K0};
  return R;
}

const smt::SolveResult UnsatResult{smt::SolveStatus::Unsat, {}};

} // namespace

TEST(ShardedSmtCache, LookupMissThenPublishThenHit) {
  ShardedSmtCache Store(4);
  const std::vector<smt::Interval> D = {{1, 10}};
  smt::FormulaPtr F = geAtom(7);
  smt::SolveResult Out;
  EXPECT_FALSE(Store.lookup(F, D, Out));
  EXPECT_EQ(Store.misses(), 1u);

  Store.publish(F, D, satResult(7));
  EXPECT_EQ(Store.size(), 1u);

  // A structurally equal formula built independently is the SAME pointer
  // (hash-consing), so it hits; different domains miss.
  smt::FormulaPtr F2 = geAtom(7);
  ASSERT_EQ(F.get(), F2.get());
  ASSERT_TRUE(Store.lookup(F2, D, Out));
  EXPECT_EQ(Out.Status, smt::SolveStatus::Sat);
  EXPECT_EQ(Out.Assignment, (smt::Model{7}));
  EXPECT_EQ(Store.hits(), 1u);
  EXPECT_FALSE(Store.lookup(F2, {{1, 5}}, Out));
}

TEST(ShardedSmtCache, LruEvictionRespectsEntryCap) {
  // One shard so the LRU order is global and fully observable.
  ShardedSmtCache Store(1, CacheLimits{/*MaxEntries=*/2, /*MaxCost=*/0});
  const std::vector<smt::Interval> D = {{1, 10}};
  Store.publish(geAtom(1), D, satResult(1));
  Store.publish(geAtom(2), D, satResult(2));
  EXPECT_EQ(Store.size(), 2u);

  // Touch entry 1: entry 2 becomes least recently used...
  smt::SolveResult Out;
  EXPECT_TRUE(Store.lookup(geAtom(1), D, Out));
  // ...so publishing a third evicts entry 2, not entry 1.
  Store.publish(geAtom(3), D, satResult(3));
  EXPECT_EQ(Store.size(), 2u);
  EXPECT_EQ(Store.evictions(), 1u);
  EXPECT_TRUE(Store.lookup(geAtom(1), D, Out));
  EXPECT_FALSE(Store.lookup(geAtom(2), D, Out));
  EXPECT_TRUE(Store.lookup(geAtom(3), D, Out));
}

TEST(ShardedSmtCache, CachedUnsatAnswersSupersetByImplication) {
  ShardedSmtCache Store(4);
  const std::vector<smt::Interval> D = {{1, 10}, {1, 10}};
  smt::FormulaPtr A =
      smt::Formula::ge(smt::Term::var(0), smt::Term::constant(4));
  smt::FormulaPtr B =
      smt::Formula::le(smt::Term::var(0), smt::Term::constant(2));
  smt::FormulaPtr C =
      smt::Formula::ge(smt::Term::var(1), smt::Term::constant(3));
  smt::FormulaPtr Core = smt::Formula::conj({A, B}); // Unsat: k0>=4 & k0<=2
  Store.publish(Core, D, UnsatResult);

  // The superset conjunction was never published, but its conjuncts
  // include the cached Unsat core, so it is Unsat by implication.
  smt::SolveResult Out;
  ASSERT_TRUE(Store.lookup(smt::Formula::conj({A, B, C}), D, Out));
  EXPECT_EQ(Out.Status, smt::SolveStatus::Unsat);
  EXPECT_EQ(Store.impliedHits(), 1u);
  EXPECT_EQ(Store.hits(), 0u); // disjoint counters

  // Implication requires the SAME domain vector (Unsat under one domain
  // box says nothing about a wider one) and does not run in reverse (a
  // subset of the core is not implied).
  EXPECT_FALSE(Store.lookup(smt::Formula::conj({A, B, C}), {{1, 99}, {1, 10}},
                            Out));
  EXPECT_FALSE(Store.lookup(A, D, Out));
}

TEST(ShardedSmtCache, UnsatRingSurvivesLruEviction) {
  // Unsat is a mathematical fact, not a cached artifact: evicting the
  // LRU entry must not forget the core for implication purposes.
  ShardedSmtCache Store(1, CacheLimits{/*MaxEntries=*/1, /*MaxCost=*/0});
  const std::vector<smt::Interval> D = {{1, 10}};
  smt::FormulaPtr A = geAtom(4);
  smt::FormulaPtr B =
      smt::Formula::le(smt::Term::var(0), smt::Term::constant(2));
  smt::FormulaPtr Core = smt::Formula::conj({A, B});
  Store.publish(Core, D, UnsatResult);
  Store.publish(geAtom(1), D, satResult(1)); // evicts the Unsat entry
  EXPECT_EQ(Store.size(), 1u);
  EXPECT_GE(Store.evictions(), 1u);

  smt::FormulaPtr Extra =
      smt::Formula::ne(smt::Term::var(0), smt::Term::constant(9));
  smt::SolveResult Out;
  ASSERT_TRUE(Store.lookup(smt::Formula::conj({A, B, Extra}), D, Out));
  EXPECT_EQ(Out.Status, smt::SolveStatus::Unsat);
  EXPECT_EQ(Store.impliedHits(), 1u);
}

TEST(ShardedSmtCache, CapHoldsUnderConcurrentPublishers) {
  const size_t Cap = 32;
  ShardedSmtCache Store(4, CacheLimits{Cap, /*MaxCost=*/0});
  const std::vector<smt::Interval> D = {{1, 200}};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&Store, &D, Cap, T] {
      for (int I = 1; I <= 100; ++I) {
        const int64_t Bound = ((I + T * 31) % 100) + 1;
        smt::FormulaPtr F = geAtom(Bound);
        smt::SolveResult Out;
        if (Store.lookup(F, D, Out)) {
          EXPECT_EQ(Out.Assignment, (smt::Model{Bound}));
          continue;
        }
        Store.publish(F, D, satResult(Bound));
        EXPECT_LE(Store.size(), Cap);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_LE(Store.size(), Cap);
  EXPECT_GT(Store.evictions(), 0u);
}
