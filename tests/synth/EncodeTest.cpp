//===- tests/synth/EncodeTest.cpp -----------------------------------------===//
//
// Tests of the length encoding (Fig. 13 analogue). The key property is
// Theorem 10.4's: if an instantiation of a symbolic regex matches a string
// s, then the instantiation satisfies the length-membership constraint for
// len(s).
//
//===----------------------------------------------------------------------===//

#include "synth/Encode.h"

#include "regex/Matcher.h"
#include "regex/Parser.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace regel;
using smt::Tri;

namespace {

/// Point-domains for a full assignment.
std::vector<smt::Interval> pointDomains(const std::vector<int64_t> &Vals) {
  std::vector<smt::Interval> Out;
  for (int64_t V : Vals)
    Out.push_back({V, V});
  return Out;
}

} // namespace

TEST(Encode, CharClassIsLengthOne) {
  PNodePtr N = PNode::leafNode(parseRegex("<num>"));
  SymIntervalSet S = encodeLengths(N);
  ASSERT_EQ(S.size(), 1u);
  smt::FormulaPtr F1 = lengthMembership(S, 1);
  smt::FormulaPtr F2 = lengthMembership(S, 2);
  EXPECT_EQ(F1->eval({}), Tri::True);
  EXPECT_EQ(F2->eval({}), Tri::False);
}

TEST(Encode, EmptySetHasNoLengths) {
  PNodePtr N = PNode::leafNode(Regex::emptySet());
  SymIntervalSet S = encodeLengths(N);
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(lengthMembership(S, 0)->eval({}), Tri::False);
}

TEST(Encode, OptionalAddsZero) {
  PNodePtr N = PNode::leafNode(parseRegex("Optional(Repeat(<num>,3))"));
  SymIntervalSet S = encodeLengths(N);
  EXPECT_EQ(lengthMembership(S, 0)->eval({}), Tri::True);
  EXPECT_EQ(lengthMembership(S, 3)->eval({}), Tri::True);
  EXPECT_EQ(lengthMembership(S, 2)->eval({}), Tri::False);
}

TEST(Encode, SymbolicRepeatScalesByKappa) {
  // Repeat(<num>, k0): length == k0.
  PNodePtr N = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0)});
  SymIntervalSet S = encodeLengths(N);
  smt::FormulaPtr F = lengthMembership(S, 5);
  EXPECT_EQ(F->eval(pointDomains({5})), Tri::True);
  EXPECT_EQ(F->eval(pointDomains({4})), Tri::False);
}

TEST(Encode, PaperExample45Shape) {
  // Eq. 3: Concat(Repeat(Or(<.>,<num>),k0),
  //               RepeatAtLeast(RepeatRange(<num>,1,3),k1))
  // simplifies (Eq. 4) to len >= k0 + k1.
  PNodePtr Left = PNode::opNode(
      RegexKind::Repeat,
      {PNode::leafNode(parseRegex("Or(<.>,<num>)")), PNode::symIntNode(0)});
  PNodePtr Right = PNode::opNode(
      RegexKind::RepeatAtLeast,
      {PNode::leafNode(parseRegex("RepeatRange(<num>,1,3)")),
       PNode::symIntNode(1)});
  PNodePtr Root = PNode::opNode(RegexKind::Concat, {Left, Right});
  SymIntervalSet S = encodeLengths(Root);
  smt::FormulaPtr F = lengthMembership(S, 7); // the "12345.1" example
  // k0 + k1 <= 7 must hold: (1,1) ok, (4,3) ok, (7,1) not.
  EXPECT_EQ(F->eval(pointDomains({1, 1})), Tri::True);
  EXPECT_EQ(F->eval(pointDomains({4, 3})), Tri::True);
  EXPECT_EQ(F->eval(pointDomains({7, 1})), Tri::False);
}

TEST(Encode, NotIsUnconstrained) {
  PNodePtr N = PNode::opNode(
      RegexKind::Not,
      {PNode::opNode(RegexKind::Repeat, {PNode::leafNode(parseRegex("<num>")),
                                         PNode::symIntNode(0)})});
  SymIntervalSet S = encodeLengths(N);
  for (int64_t L : {0, 1, 5, 100})
    EXPECT_EQ(lengthMembership(S, L)->eval(pointDomains({3})), Tri::True);
}

// Theorem 10.4 analogue, checked by brute force: for each symbolic shape,
// instantiation and probe string, matching implies the constraint holds.
struct SoundnessCase {
  const char *Name;
  PNodePtr (*Build)();
  uint32_t NumVars;
};

namespace {

PNodePtr buildRepeat() {
  return PNode::opNode(RegexKind::Repeat,
                       {PNode::leafNode(parseRegex("Or(<a>,Concat(<a>,<b>))")),
                        PNode::symIntNode(0)});
}

PNodePtr buildRange() {
  return PNode::opNode(RegexKind::RepeatRange,
                       {PNode::leafNode(parseRegex("<num>")),
                        PNode::symIntNode(0), PNode::symIntNode(1)});
}

PNodePtr buildConcatAtLeast() {
  return PNode::opNode(
      RegexKind::Concat,
      {PNode::opNode(RegexKind::RepeatAtLeast,
                     {PNode::leafNode(parseRegex("<a>")),
                      PNode::symIntNode(0)}),
       PNode::leafNode(parseRegex("KleeneStar(<b>)"))});
}

} // namespace

class EncodeSoundness : public ::testing::TestWithParam<SoundnessCase> {};

TEST_P(EncodeSoundness, MatchImpliesLengthConstraint) {
  const SoundnessCase &C = GetParam();
  PNodePtr Root = C.Build();
  SymIntervalSet S = encodeLengths(Root);
  const char *Probes[] = {"",      "a",    "ab",    "aab",   "abab",
                          "12",    "123",  "aaaa",  "abb",   "aabb",
                          "1",     "1234", "aaab",  "ba"};
  for (int K0 = 1; K0 <= 4; ++K0) {
    for (int K1 = 1; K1 <= (C.NumVars > 1 ? 4 : 1); ++K1) {
      PartialRegex P(Root, C.NumVars);
      P = P.assignSymInt(0, K0);
      if (C.NumVars > 1)
        P = P.assignSymInt(1, K1);
      if (!P.isConcrete())
        continue;
      RegexPtr R = P.toRegex();
      for (const char *Probe : Probes) {
        if (!matchesDirect(R, Probe))
          continue;
        smt::FormulaPtr F =
            lengthMembership(S, static_cast<int64_t>(strlen(Probe)));
        std::vector<smt::Interval> Dom = pointDomains(
            C.NumVars > 1 ? std::vector<int64_t>{K0, K1}
                          : std::vector<int64_t>{K0});
        EXPECT_NE(F->eval(Dom), Tri::False)
            << C.Name << " k0=" << K0 << " k1=" << K1 << " probe=" << Probe;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EncodeSoundness,
    ::testing::Values(SoundnessCase{"repeat", &buildRepeat, 1},
                      SoundnessCase{"range", &buildRange, 2},
                      SoundnessCase{"concatAtLeast", &buildConcatAtLeast, 1}),
    [](const ::testing::TestParamInfo<SoundnessCase> &Info) {
      return Info.param.Name;
    });
