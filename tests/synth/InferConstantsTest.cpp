//===- tests/synth/InferConstantsTest.cpp ---------------------------------===//
//
// Tests of SMT-guided constant inference (Fig. 14 / Sec. 4.2), including
// the Theorem 4.7 completeness property on small instances.
//
//===----------------------------------------------------------------------===//

#include "synth/InferConstants.h"

#include "regex/Matcher.h"
#include "regex/Parser.h"

#include <gtest/gtest.h>

using namespace regel;

namespace {

std::vector<RegexPtr> infer(const PartialRegex &P, Examples E,
                            SynthConfig Cfg = SynthConfig()) {
  FeasibilityChecker Checker(E);
  InferStats Stats;
  return inferConstants(P, E, Cfg, Checker, Stats);
}

bool containsRegex(const std::vector<RegexPtr> &Set, const char *Text) {
  RegexPtr R = parseRegex(Text);
  for (const RegexPtr &C : Set)
    if (regexEquals(C, R))
      return true;
  return false;
}

} // namespace

TEST(InferConstants, SingleVarExact) {
  // Repeat(<num>, k): positives of lengths 3 force k == 3.
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"123", "456"};
  auto Out = infer(PartialRegex(Root, 1), E);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(containsRegex(Out, "Repeat(<num>,3)"));
}

TEST(InferConstants, AscendingOrder) {
  // RepeatAtLeast(<num>, k) with shortest positive of length 2: candidates
  // come out k = 1, 2 in ascending order.
  PNodePtr Root = PNode::opNode(
      RegexKind::RepeatAtLeast,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"12", "123456"};
  auto Out = infer(PartialRegex(Root, 1), E);
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0]->getK1(), 1);
  EXPECT_EQ(Out[1]->getK1(), 2);
}

TEST(InferConstants, RangeOrderEnforced) {
  // RepeatRange(<num>, k1, k2) never yields k1 > k2.
  PNodePtr Root = PNode::opNode(
      RegexKind::RepeatRange,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0),
       PNode::symIntNode(1)});
  Examples E;
  E.Pos = {"12", "1234"};
  SynthConfig Cfg;
  Cfg.MaxInt = 6;
  auto Out = infer(PartialRegex(Root, 2), E, Cfg);
  ASSERT_FALSE(Out.empty());
  for (const RegexPtr &R : Out) {
    EXPECT_LE(R->getK1(), R->getK2());
    EXPECT_LE(R->getK1(), 2);
    EXPECT_GE(R->getK2(), 4);
  }
}

TEST(InferConstants, Section2Decimal) {
  // The motivating example: the intended constants (1, 15) must be among
  // the candidates.
  PNodePtr Left = PNode::opNode(
      RegexKind::RepeatRange,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0),
       PNode::symIntNode(1)});
  PNodePtr Tail = PNode::leafNode(
      parseRegex("Optional(Concat(<.>,RepeatRange(<num>,1,3)))"));
  PNodePtr Root = PNode::opNode(RegexKind::Concat, {Left, Tail});
  Examples E;
  E.Pos = {"123456789.123", "123456789123456.12", "12345.1",
           "123456789123456"};
  E.Neg = {"1234567891234567", "123.1234", "1.12345", ".1234"};
  auto Out = infer(PartialRegex(Root, 2), E);
  EXPECT_TRUE(containsRegex(
      Out, "Concat(RepeatRange(<num>,1,15),Optional(Concat(<.>,RepeatRange(<"
           "num>,1,3))))"));
}

TEST(InferConstants, UnsatisfiableLengthsYieldNothing) {
  // Repeat(Repeat(<num>,2), k): even lengths only; positive of length 3.
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("Repeat(<num>,2)")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"123"};
  auto Out = infer(PartialRegex(Root, 1), E);
  EXPECT_TRUE(Out.empty());
}

TEST(InferConstants, ResultCapRespected) {
  PNodePtr Root = PNode::opNode(
      RegexKind::RepeatAtLeast,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"12345678901234567890"};
  SynthConfig Cfg;
  Cfg.MaxInferResults = 3;
  auto Out = infer(PartialRegex(Root, 1), E, Cfg);
  EXPECT_EQ(Out.size(), 3u);
}

// Theorem 4.7 analogue (completeness): every consistent instantiation is
// in the returned set.
TEST(InferConstants, CompletenessBruteForce) {
  PNodePtr Root = PNode::opNode(
      RegexKind::Concat,
      {PNode::opNode(RegexKind::Repeat, {PNode::leafNode(parseRegex("<a>")),
                                         PNode::symIntNode(0)}),
       PNode::opNode(RegexKind::Repeat, {PNode::leafNode(parseRegex("<b>")),
                                         PNode::symIntNode(1)})});
  Examples E;
  E.Pos = {"aabbb", "aabbb"};
  E.Neg = {"ab"};
  SynthConfig Cfg;
  Cfg.MaxInt = 8;
  auto Out = infer(PartialRegex(Root, 2), E, Cfg);
  // Brute force: which (k0,k1) are consistent?
  unsigned ConsistentCount = 0;
  for (int K0 = 1; K0 <= 8; ++K0)
    for (int K1 = 1; K1 <= 8; ++K1) {
      PartialRegex P(Root, 2);
      RegexPtr R = P.assignSymInt(0, K0).assignSymInt(1, K1).toRegex();
      bool Ok = matchesDirect(R, "aabbb") && !matchesDirect(R, "ab");
      if (!Ok)
        continue;
      ++ConsistentCount;
      EXPECT_TRUE(std::any_of(Out.begin(), Out.end(), [&](const RegexPtr &C) {
        return regexEquals(C, R);
      })) << "missing k0=" << K0 << " k1=" << K1;
    }
  EXPECT_EQ(ConsistentCount, 1u); // only (2,3)
}

TEST(InferConstants, StatsPopulated) {
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"1234"};
  FeasibilityChecker Checker(E);
  InferStats Stats;
  SynthConfig Cfg;
  auto Out = inferConstants(PartialRegex(Root, 1), E, Cfg, Checker, Stats);
  EXPECT_EQ(Out.size(), 1u);
  // The split counters: interval sweeps drive the enumeration, the
  // length pre-check runs at least one real solve (no store attached, so
  // nothing can be answered from cache).
  EXPECT_GT(Stats.IntervalEvals, 0u);
  EXPECT_GT(Stats.SmtSolves, 0u);
  EXPECT_EQ(Stats.SmtCacheHits, 0u);
  EXPECT_GT(Stats.Iterations, 0u);
  EXPECT_FALSE(Stats.HitIterationCap);
}

TEST(InferConstants, IterationCapMidEnumerationIsCleanPrefix) {
  // Two variables, so the iteration cap fires mid-loop at depth 1 with
  // the depth-0 domain still restricted. Regression for the stale-domain
  // bug: an early unwind must restore every Domains entry (DomainScope)
  // and stop the whole walk promptly (Stop flag) — the capped run's
  // results must be exactly a prefix of the uncapped run's, and the
  // iteration counter must not keep charging siblings on the way out.
  PNodePtr Root = PNode::opNode(
      RegexKind::Concat,
      {PNode::opNode(RegexKind::RepeatAtLeast,
                     {PNode::leafNode(parseRegex("<a>")),
                      PNode::symIntNode(0)}),
       PNode::opNode(RegexKind::RepeatAtLeast,
                     {PNode::leafNode(parseRegex("<b>")),
                      PNode::symIntNode(1)})});
  Examples E;
  E.Pos = {"aaaabbbb"};
  SynthConfig Cfg;
  Cfg.MaxInt = 4;
  FeasibilityChecker Checker(E);
  InferStats Full;
  auto All = inferConstants(PartialRegex(Root, 2), E, Cfg, Checker, Full);
  ASSERT_GT(All.size(), 2u);
  EXPECT_FALSE(Full.HitIterationCap);

  Cfg.MaxInferIters = Full.Iterations / 2;
  InferStats Capped;
  auto Some = inferConstants(PartialRegex(Root, 2), E, Cfg, Checker, Capped);
  EXPECT_TRUE(Capped.HitIterationCap);
  // Prompt stop: the cap charges exactly one extra iteration (the one
  // that trips it), not one per remaining sibling frame.
  EXPECT_EQ(Capped.Iterations, Cfg.MaxInferIters + 1);
  ASSERT_LE(Some.size(), All.size());
  for (size_t I = 0; I < Some.size(); ++I)
    EXPECT_TRUE(regexEquals(Some[I], All[I]))
        << "capped run diverged at result " << I;
}

TEST(InferConstants, VerdictStoreRerunSkipsSolves) {
  // With a verdict store attached, a rerun of the same inference answers
  // its satisfiability checks from cache: no new solves, and the run/
  // store counters partition exactly. Two distinct example lengths make
  // three checks: one per length, then the joint one.
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"1234", "12345"};
  smt::ShardedSmtCache Store(4);
  SynthConfig Cfg;
  Cfg.SharedSmt = &Store;
  FeasibilityChecker Checker(E);

  InferStats Cold;
  auto First = inferConstants(PartialRegex(Root, 1), E, Cfg, Checker, Cold);
  EXPECT_EQ(Cold.SmtSolves, 3u);
  EXPECT_EQ(Cold.SmtCacheHits, 0u);

  InferStats Warm;
  auto Second = inferConstants(PartialRegex(Root, 1), E, Cfg, Checker, Warm);
  EXPECT_EQ(Warm.SmtSolves, 0u);
  EXPECT_EQ(Warm.SmtCacheHits, 3u);
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I)
    EXPECT_TRUE(regexEquals(First[I], Second[I]));

  // Store-level figures reconcile with the run-level ones: every solve
  // was a store miss, every cache hit a store answer.
  EXPECT_EQ(Store.misses(), Cold.SmtSolves + Warm.SmtSolves);
  EXPECT_EQ(Store.hits(), Cold.SmtCacheHits + Warm.SmtCacheHits);
  EXPECT_EQ(Store.size(), 3u);
}

TEST(InferConstants, VerdictStoreCachesUnsatShortCircuit) {
  // Unsatisfiable lengths: the first run pays the solves, the rerun is
  // answered entirely from the store, and both short-circuit before
  // enumerating anything.
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("Repeat(<num>,2)")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"123"};
  smt::ShardedSmtCache Store(4);
  SynthConfig Cfg;
  Cfg.SharedSmt = &Store;
  FeasibilityChecker Checker(E);

  InferStats Cold;
  EXPECT_TRUE(
      inferConstants(PartialRegex(Root, 1), E, Cfg, Checker, Cold).empty());
  EXPECT_EQ(Cold.UnsatShortCircuits, 1u);
  EXPECT_GT(Cold.SmtSolves, 0u);
  EXPECT_EQ(Cold.Iterations, 0u);

  InferStats Warm;
  EXPECT_TRUE(
      inferConstants(PartialRegex(Root, 1), E, Cfg, Checker, Warm).empty());
  EXPECT_EQ(Warm.UnsatShortCircuits, 1u);
  EXPECT_EQ(Warm.SmtSolves, 0u);
  EXPECT_GT(Warm.SmtCacheHits, 0u);
  EXPECT_EQ(Warm.Iterations, 0u);
}

TEST(InferConstants, VerdictStoreNeverHoldsBudgetOuts) {
  // A budget-out depends on the caller's budget, not on the formula: it
  // must not be published (a later caller with a bigger budget would
  // inherit it), and it must not refute anything — the enumeration runs
  // and finds the same answer as an unbounded check.
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  Examples E;
  E.Pos = {"1234"};
  smt::ShardedSmtCache Store(4);
  SynthConfig Cfg;
  Cfg.SharedSmt = &Store;
  Cfg.SmtNodeBudget = 1; // k0 == 4 needs a branch: the root is Unknown
  FeasibilityChecker Checker(E);

  InferStats Stats;
  auto Out = inferConstants(PartialRegex(Root, 1), E, Cfg, Checker, Stats);
  EXPECT_EQ(Stats.SmtSolves, 1u);
  EXPECT_EQ(Stats.UnsatShortCircuits, 0u);
  EXPECT_EQ(Store.size(), 0u);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(containsRegex(Out, "Repeat(<num>,4)"));
}
