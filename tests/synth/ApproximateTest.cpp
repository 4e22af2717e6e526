//===- tests/synth/ApproximateTest.cpp ------------------------------------===//
//
// Tests of the over/under-approximation rules (Figs. 11/12), including the
// paper's Example 4.3 and the soundness properties of Theorem 4.4.
//
//===----------------------------------------------------------------------===//

#include "synth/Approximate.h"

#include "regex/Matcher.h"
#include "regex/Parser.h"
#include "regex/Printer.h"
#include "sketch/SketchParser.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace regel;

namespace {

Approx approxOfSketch(const char *Text, unsigned Depth,
                      bool WithClasses = false) {
  SketchPtr S = parseSketch(Text);
  EXPECT_TRUE(S) << Text;
  return approximateSketch(S, Depth, WithClasses);
}

// Random sketches, partial regexes and their concretizations for the
// soundness sweep below.

/// Leaves of the random sketches; also the character classes a widened
/// hole may be filled with.
const char *const LeafTexts[] = {"<num>", "<let>", "<cap>", "<low>",
                                 "<a>",   "<1>",   "<,>"};

const RegexKind OpKinds[] = {
    RegexKind::Concat,     RegexKind::Or,         RegexKind::And,
    RegexKind::Not,        RegexKind::Optional,   RegexKind::KleeneStar,
    RegexKind::StartsWith, RegexKind::EndsWith,   RegexKind::Contains,
    RegexKind::Repeat,     RegexKind::RepeatAtLeast, RegexKind::RepeatRange};

RegexPtr randomLeaf(Rng &R) {
  return parseRegex(LeafTexts[R.nextBelow(std::size(LeafTexts))]);
}

RegexKind randomOp(Rng &R) { return OpKinds[R.nextBelow(std::size(OpKinds))]; }

/// Integer arguments of Repeat-family operator \p K, at least 1 like the
/// domains constant inference searches.
std::vector<int> randomInts(Rng &R, RegexKind K) {
  const int K1 = static_cast<int>(R.nextInRange(1, 3));
  if (K == RegexKind::RepeatRange)
    return {K1, K1 + static_cast<int>(R.nextInRange(0, 2))};
  return {K1};
}

/// A random h-sketch of depth at most \p Depth: concrete leaves, holes
/// with up to three components (none = unconstrained), and every
/// operator, Repeat-family integers concrete or symbolic.
SketchPtr randomSketch(Rng &R, unsigned Depth) {
  const uint64_t Pick = R.nextBelow(Depth <= 1 ? 2 : 5);
  if (Pick == 0)
    return Sketch::concrete(randomLeaf(R));
  if (Pick <= 2) {
    std::vector<SketchPtr> Comps;
    for (uint64_t I = R.nextBelow(4); I > 0; --I)
      Comps.push_back(Depth <= 1 ? Sketch::concrete(randomLeaf(R))
                                 : randomSketch(R, Depth - 1));
    return Sketch::hole(std::move(Comps));
  }
  const RegexKind K = randomOp(R);
  std::vector<SketchPtr> Kids;
  for (unsigned I = 0; I < numRegexArgs(K); ++I)
    Kids.push_back(randomSketch(R, Depth - 1));
  std::vector<int> Ints;
  if (isRepeatFamily(K) && R.chance(1, 2))
    Ints = randomInts(R, K);
  return Sketch::op(K, std::move(Kids), std::move(Ints));
}

/// A random completion of \p S under hole depth budget \p Depth, as the
/// expander fills holes: one component at the same budget, or, for a
/// widened hole, any character class. (Deeper hole expansions exist
/// only at budgets above 1, where a hole approximates as (top, bottom)
/// and any regex is sound.)
RegexPtr sampleSketch(Rng &R, const SketchPtr &S, unsigned Depth,
                      bool WithClasses) {
  switch (S->getKind()) {
  case SketchKind::Concrete:
    return S->regex();
  case SketchKind::Op: {
    std::vector<RegexPtr> Kids;
    for (const SketchPtr &C : S->children())
      Kids.push_back(sampleSketch(R, C, Depth, /*WithClasses=*/false));
    std::vector<int> Ints = S->ints();
    if (isRepeatFamily(S->getOp()) && Ints.empty())
      Ints = randomInts(R, S->getOp());
    return Regex::makeOperator(S->getOp(), std::move(Kids), Ints);
  }
  case SketchKind::Hole: {
    const std::vector<SketchPtr> &Comps = S->components();
    if (Comps.empty() || (WithClasses && R.chance(1, 3)))
      return randomLeaf(R);
    return sampleSketch(R, Comps[R.nextBelow(Comps.size())], Depth,
                        /*WithClasses=*/false);
  }
  }
  return nullptr;
}

/// A random partial regex of operator nesting at most \p Depth:
/// operators over concrete leaves and open sketch nodes (budget 1 or 2,
/// widened or not), integer slots all assigned or all symbolic.
PNodePtr randomPartial(Rng &R, unsigned Depth, uint32_t &NextSym) {
  const uint64_t Pick = R.nextBelow(Depth <= 1 ? 2 : 4);
  if (Pick == 0)
    return PNode::leafNode(randomLeaf(R));
  if (Pick == 1)
    return PNode::sketchNode(randomSketch(R, Depth),
                             static_cast<unsigned>(1 + R.nextBelow(2)),
                             R.chance(1, 2));
  const RegexKind K = randomOp(R);
  std::vector<PNodePtr> Kids;
  for (unsigned I = 0; I < numRegexArgs(K); ++I)
    Kids.push_back(randomPartial(R, Depth - 1, NextSym));
  if (isRepeatFamily(K)) {
    if (R.chance(1, 2))
      for (int V : randomInts(R, K))
        Kids.push_back(PNode::intNode(V));
    else
      for (unsigned I = 0; I < numIntArgs(K); ++I)
        Kids.push_back(PNode::symIntNode(NextSym++));
  }
  return PNode::opNode(K, std::move(Kids));
}

/// A random completion of partial regex \p N.
RegexPtr samplePartial(Rng &R, const PNodePtr &N) {
  switch (N->getKind()) {
  case PLabelKind::LeafLabel:
    return N->leaf();
  case PLabelKind::SketchLabel:
    return sampleSketch(R, N->sketch(), N->sketchDepth(),
                        N->sketchWithClasses());
  case PLabelKind::OpLabel: {
    const RegexKind K = N->op();
    std::vector<RegexPtr> Kids;
    for (unsigned I = 0; I < numRegexArgs(K); ++I)
      Kids.push_back(samplePartial(R, N->children()[I]));
    std::vector<int> Ints;
    if (isRepeatFamily(K)) {
      const unsigned First = numRegexArgs(K);
      if (N->children()[First]->getKind() == PLabelKind::IntLabel)
        for (unsigned I = 0; I < numIntArgs(K); ++I)
          Ints.push_back(N->children()[First + I]->intValue());
      else
        Ints = randomInts(R, K);
    }
    return Regex::makeOperator(K, std::move(Kids), Ints);
  }
  case PLabelKind::SymIntLabel:
  case PLabelKind::IntLabel:
    break;
  }
  return nullptr;
}

/// Every string over {1, 2, a, B, ','} up to length 4: enough to tell
/// the leaves apart and to hit the small repeat counts sampled above.
std::vector<std::string> probeStrings() {
  const std::string Alphabet = "12aB,";
  std::vector<std::string> Out = {""};
  for (size_t From = 0, Len = 1; Len <= 4; ++Len) {
    const size_t To = Out.size();
    for (size_t I = From; I < To; ++I)
      for (char C : Alphabet)
        Out.push_back(Out[I] + C);
    From = To;
  }
  return Out;
}

} // namespace

TEST(Approximate, TopBottomBasics) {
  EXPECT_EQ(printRegex(topRegex()), "KleeneStar(<any>)");
  EXPECT_EQ(printRegex(botRegex()), "empty");
}

TEST(Approximate, ConcreteIsExact) {
  Approx A = approxOfSketch("Repeat(<num>,3)", 1);
  EXPECT_TRUE(regexEquals(A.Over, A.Under));
  EXPECT_TRUE(regexEquals(A.Over, parseRegex("Repeat(<num>,3)")));
}

TEST(Approximate, DeepHoleIsTopBottom) {
  Approx A = approxOfSketch("hole{<num>}", 2);
  EXPECT_TRUE(regexEquals(A.Over, topRegex()));
  EXPECT_TRUE(regexEquals(A.Under, botRegex()));
}

TEST(Approximate, DepthOneHoleUnionIntersection) {
  // Rule 2: over = union of component overs, under = intersection.
  Approx A = approxOfSketch("hole{<num>,<,>}", 1);
  EXPECT_EQ(printRegex(A.Over), "Or(<num>,<,>)");
  EXPECT_EQ(printRegex(A.Under), "And(<num>,<,>)");
}

TEST(Approximate, SingletonHoleIsComponent) {
  // Rule 1: a depth-1 hole with one component approximates as it.
  Approx A = approxOfSketch("hole{RepeatRange(<num>,1,3)}", 1);
  EXPECT_TRUE(regexEquals(A.Over, parseRegex("RepeatRange(<num>,1,3)")));
  EXPECT_TRUE(regexEquals(A.Under, parseRegex("RepeatRange(<num>,1,3)")));
}

TEST(Approximate, NotSwapsApproximations) {
  // Rule 5: Not(S) ~ (Not(u), Not(o)).
  Approx A = approxOfSketch("Not(hole{<num>,<,>})", 1);
  EXPECT_EQ(printRegex(A.Over), "Not(And(<num>,<,>))");
  EXPECT_EQ(printRegex(A.Under), "Not(Or(<num>,<,>))");
}

TEST(Approximate, SymbolicRepeatIsAtLeastOne) {
  // Rule 6: g with symbolic integers over-approximates as
  // RepeatAtLeast(o, 1) and under-approximates as bottom.
  Approx A = approxOfSketch("Repeat(hole{<num>,<,>},?)", 1);
  EXPECT_EQ(printRegex(A.Over), "RepeatAtLeast(Or(<num>,<,>),1)");
  EXPECT_TRUE(regexEquals(A.Under, botRegex()));
}

TEST(Approximate, PaperExample43) {
  // Figure 3's partial regex: Concat(<num>, Not(S')) where S' is the hole
  // with components {<,>, RepeatRange(<num>,1,3)} at depth 1.
  PNodePtr NotNode = PNode::opNode(
      RegexKind::Not,
      {PNode::sketchNode(parseSketch("hole{<,>,RepeatRange(<num>,1,3)}"), 1,
                         false)});
  PNodePtr Root = PNode::opNode(
      RegexKind::Concat, {PNode::leafNode(parseRegex("<num>")), NotNode});
  Approx A = approximatePartial(Root);
  // Under-approximation per Eq. 2.
  EXPECT_EQ(printRegex(A.Under),
            "Concat(<num>,Not(Or(<,>,RepeatRange(<num>,1,3))))");
  // Eq. 2's under-approximation accepts the negative example from Sec. 2,
  // which is what justified pruning this partial regex.
  EXPECT_TRUE(matchesDirect(A.Under, "1234567891234567"));
}

TEST(Approximate, SimplificationKeepsRegexesSmall) {
  // Or with bottom folds away; And with top folds away.
  PNodePtr Root = PNode::opNode(
      RegexKind::Or,
      {PNode::sketchNode(Sketch::unconstrained(), 3, true), // top/bottom
       PNode::leafNode(parseRegex("<a>"))});
  Approx A = approximatePartial(Root);
  EXPECT_TRUE(regexEquals(A.Over, topRegex()));
  EXPECT_EQ(printRegex(A.Under), "<a>");
}

TEST(Approximate, OptionalOfBottomIsEpsilon) {
  PNodePtr Root = PNode::opNode(
      RegexKind::Optional,
      {PNode::sketchNode(Sketch::unconstrained(), 3, true)});
  Approx A = approximatePartial(Root);
  EXPECT_EQ(A.Under->getKind(), RegexKind::Epsilon);
  EXPECT_TRUE(regexEquals(A.Over, topRegex()));
}

// Soundness sweep (Theorem 4.4 property): for every case, the
// over-approximation accepts every string a completion accepts, and the
// under-approximation only accepts strings every completion accepts:
// L(Under) <= L(c) <= L(Over). The first case's completions are
// enumerated by hand; the seeded random cases sample completions of
// sketches (approximateSketch) and of partial regexes over sketches
// (approximatePartial), depth at most 3.
TEST(Approximate, SoundnessOnDepthOneHole) {
  struct Case {
    std::string Name;
    Approx A;
    std::vector<RegexPtr> Completions;
  };
  std::vector<Case> Cases;
  {
    SketchPtr S =
        parseSketch("hole{Repeat(<num>,2),RepeatRange(<num>,2,3)}");
    // Completions: exactly the two components.
    Cases.push_back({printSketch(S), approximateSketch(S, 1, false),
                     {parseRegex("Repeat(<num>,2)"),
                      parseRegex("RepeatRange(<num>,2,3)")}});
  }
  Rng R(0x50fa);
  for (int I = 0; I < 600; ++I) {
    const SketchPtr S = randomSketch(R, 3);
    const unsigned Depth = static_cast<unsigned>(1 + R.nextBelow(2));
    const bool WithClasses = R.chance(1, 2);
    Case C{printSketch(S) + " depth " + std::to_string(Depth) +
               (WithClasses ? " widened" : ""),
           approximateSketch(S, Depth, WithClasses),
           {}};
    for (int J = 0; J < 3; ++J) {
      RegexPtr Completion = sampleSketch(R, S, Depth, WithClasses);
      // The sampler stays inside the sketch's language (Fig. 8); a
      // widened hole's character classes are outside that judgement.
      if (!WithClasses)
        EXPECT_TRUE(sketchAdmits(S, Completion, Depth))
            << C.Name << " / " << printRegex(Completion);
      C.Completions.push_back(std::move(Completion));
    }
    Cases.push_back(std::move(C));

    uint32_t NextSym = 0;
    const PNodePtr P = randomPartial(R, 3, NextSym);
    Case PC{"partial " + PartialRegex(P, NextSym).str(),
            approximatePartial(P),
            {}};
    for (int J = 0; J < 3; ++J)
      PC.Completions.push_back(samplePartial(R, P));
    Cases.push_back(std::move(PC));
  }

  const std::vector<std::string> Probes = probeStrings();
  for (const Case &C : Cases) {
    DirectMatcher Over(C.A.Over), Under(C.A.Under);
    std::vector<bool> InUnder, InOver;
    for (const std::string &Probe : Probes) {
      InUnder.push_back(Under.matches(Probe));
      InOver.push_back(Over.matches(Probe));
    }
    for (const RegexPtr &Completion : C.Completions) {
      DirectMatcher M(Completion);
      for (size_t I = 0; I < Probes.size(); ++I) {
        const bool InC = M.matches(Probes[I]);
        if ((!InC || InOver[I]) && (InC || !InUnder[I]))
          continue;
        ADD_FAILURE() << C.Name << ": completion " << printRegex(Completion)
                      << (InC ? " accepts" : " rejects") << " \""
                      << Probes[I] << "\" but over "
                      << printRegex(C.A.Over) << ", under "
                      << printRegex(C.A.Under);
        break;
      }
    }
  }
}

TEST(FeasibilityChecker, PrunesOverViolation) {
  // Partial regex Repeat(<let>, k) cannot match positive "123".
  Examples E;
  E.Pos = {"123"};
  E.Neg = {"x"};
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<let>")), PNode::symIntNode(0)});
  FeasibilityChecker Checker(E);
  EXPECT_TRUE(Checker.infeasible(PartialRegex(Root, 1)));
}

TEST(FeasibilityChecker, PrunesUnderViolation) {
  // Fully concrete partial that accepts a negative example.
  Examples E;
  E.Pos = {};
  E.Neg = {"ab"};
  PNodePtr Root = PNode::leafNode(parseRegex("Concat(<a>,<b>)"));
  FeasibilityChecker Checker(E);
  EXPECT_TRUE(Checker.infeasible(PartialRegex(Root, 0)));
}

TEST(FeasibilityChecker, KeepsFeasiblePartial) {
  Examples E;
  E.Pos = {"123", "45"};
  E.Neg = {"abc"};
  PNodePtr Root = PNode::opNode(
      RegexKind::RepeatAtLeast,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  FeasibilityChecker Checker(E);
  EXPECT_FALSE(Checker.infeasible(PartialRegex(Root, 1)));
}

TEST(FeasibilityChecker, CachesVerdicts) {
  Examples E;
  E.Pos = {"123"};
  E.Neg = {};
  FeasibilityChecker Checker(E);
  PNodePtr Root = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<let>")), PNode::symIntNode(0)});
  PartialRegex P(Root, 1);
  EXPECT_TRUE(Checker.infeasible(P));
  EXPECT_TRUE(Checker.infeasible(P));
  EXPECT_EQ(Checker.checksRun(), 2u);
}

TEST(FeasibilityChecker, VerdictMemoKeysOnFullIdentityNotHash) {
  // Every key collides under a constant hash. A memo keyed by the hash
  // alone would hand the second regex the first one's verdict; keyed by
  // the regex itself, the two distinct regexes get separate verdicts in
  // either order.
  Examples E;
  E.Pos = {"123"};
  E.Neg = {};
  auto Collide = [](const RegexPtr &) -> size_t { return 42; };
  PartialRegex Digits(PNode::leafNode(parseRegex("Repeat(<num>,3)")), 0);
  PartialRegex Letters(PNode::leafNode(parseRegex("Repeat(<let>,3)")), 0);

  FeasibilityChecker DigitsFirst(E, Collide);
  EXPECT_FALSE(DigitsFirst.infeasible(Digits));
  EXPECT_TRUE(DigitsFirst.infeasible(Letters));

  FeasibilityChecker LettersFirst(E, Collide);
  EXPECT_TRUE(LettersFirst.infeasible(Letters));
  EXPECT_FALSE(LettersFirst.infeasible(Digits));
  // A structurally equal regex (a distinct object) reuses the verdict.
  PartialRegex DigitsAgain(PNode::leafNode(parseRegex("Repeat(<num>,3)")), 0);
  EXPECT_FALSE(LettersFirst.infeasible(DigitsAgain));
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

TEST(ShardedApproxStore, KeyHashSpreadsConsecutiveDepthsAcrossShards) {
  // XORing (Depth << 1) straight into the sketch hash would leave the
  // 16-way shard pick (low 4 bits) at most 8 distinct values over any run
  // of consecutive depths — half the shards could never be used by a
  // depth sweep of one sketch. The mixed hash must not have that ceiling.
  const size_t NumShards = 16;
  auto ShardOf = [NumShards](const SketchPtr &S, unsigned Depth,
                             bool WithClasses) {
    return ApproxKeyHash{}({S, Depth, WithClasses}) % NumShards;
  };
  SketchPtr S = parseSketch("hole{Repeat(<num>,2)}");
  std::vector<unsigned> Load(NumShards, 0);
  unsigned Distinct = 0;
  for (unsigned Depth = 0; Depth < 16; ++Depth)
    for (bool WithClasses : {false, true})
      if (Load[ShardOf(S, Depth, WithClasses)]++ == 0)
        ++Distinct;
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
      for (bool WithClasses : {false, true})
        if (Load[ShardOf(Sk, Depth, WithClasses)]++ == 0)
          ++Distinct;
  }
  EXPECT_GE(Distinct, 12u);
}
