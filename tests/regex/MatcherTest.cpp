//===- tests/regex/MatcherTest.cpp ----------------------------------------===//

#include "automata/Compile.h"
#include "regex/Matcher.h"
#include "regex/Parser.h"
#include "regex/Printer.h"
#include "support/Random.h"

#include "../common/TestCorpus.h"

#include <gtest/gtest.h>

using namespace regel;

namespace {

bool matches(const char *Pattern, const char *Input) {
  RegexPtr R = parseRegex(Pattern);
  EXPECT_TRUE(R) << Pattern;
  return matchesDirect(R, Input);
}

} // namespace

TEST(Matcher, CharClassSingleChar) {
  EXPECT_TRUE(matches("<num>", "5"));
  EXPECT_FALSE(matches("<num>", "55"));
  EXPECT_FALSE(matches("<num>", ""));
  EXPECT_FALSE(matches("<num>", "a"));
}

TEST(Matcher, EpsilonAndEmpty) {
  EXPECT_TRUE(matches("eps", ""));
  EXPECT_FALSE(matches("eps", "a"));
  EXPECT_FALSE(matches("empty", ""));
  EXPECT_FALSE(matches("empty", "a"));
}

TEST(Matcher, ConcatAllowsEmptyPieces) {
  // Sec. 2 requires Concat(x, Optional(y)) to accept strings matching just
  // x; the split must therefore admit empty parts.
  EXPECT_TRUE(matches("Concat(<a>,Optional(<b>))", "a"));
  EXPECT_TRUE(matches("Concat(<a>,Optional(<b>))", "ab"));
  EXPECT_FALSE(matches("Concat(<a>,Optional(<b>))", "b"));
}

TEST(Matcher, ConcatOrder) {
  EXPECT_TRUE(matches("Concat(<a>,<b>)", "ab"));
  EXPECT_FALSE(matches("Concat(<a>,<b>)", "ba"));
}

TEST(Matcher, OrEitherBranch) {
  EXPECT_TRUE(matches("Or(<num>,<let>)", "7"));
  EXPECT_TRUE(matches("Or(<num>,<let>)", "q"));
  EXPECT_FALSE(matches("Or(<num>,<let>)", "!"));
}

TEST(Matcher, AndRequiresBoth) {
  EXPECT_TRUE(matches("And(<num>,<hex>)", "9"));
  EXPECT_FALSE(matches("And(<num>,<hex>)", "c")); // hex but not num
}

TEST(Matcher, NotComplements) {
  EXPECT_FALSE(matches("Not(<num>)", "5"));
  EXPECT_TRUE(matches("Not(<num>)", "55"));
  EXPECT_TRUE(matches("Not(<num>)", ""));
  EXPECT_TRUE(matches("Not(<num>)", "x"));
}

TEST(Matcher, StartsWithPrefix) {
  EXPECT_TRUE(matches("StartsWith(<cap>)", "Abc"));
  EXPECT_TRUE(matches("StartsWith(<cap>)", "A"));
  EXPECT_FALSE(matches("StartsWith(<cap>)", "abc"));
  EXPECT_FALSE(matches("StartsWith(<cap>)", ""));
}

TEST(Matcher, EndsWithSuffix) {
  EXPECT_TRUE(matches("EndsWith(<num>)", "abc9"));
  EXPECT_TRUE(matches("EndsWith(<num>)", "9"));
  EXPECT_FALSE(matches("EndsWith(<num>)", "9abc"));
}

TEST(Matcher, ContainsSubstring) {
  EXPECT_TRUE(matches("Contains(Concat(<a>,<b>))", "xxabyy"));
  EXPECT_TRUE(matches("Contains(Concat(<a>,<b>))", "ab"));
  EXPECT_FALSE(matches("Contains(Concat(<a>,<b>))", "ba"));
  EXPECT_FALSE(matches("Contains(Concat(<a>,<b>))", "a"));
}

TEST(Matcher, OptionalMatchesEmptyOrOne) {
  EXPECT_TRUE(matches("Optional(<a>)", ""));
  EXPECT_TRUE(matches("Optional(<a>)", "a"));
  EXPECT_FALSE(matches("Optional(<a>)", "aa"));
}

TEST(Matcher, KleeneStarZeroOrMore) {
  EXPECT_TRUE(matches("KleeneStar(<num>)", ""));
  EXPECT_TRUE(matches("KleeneStar(<num>)", "1"));
  EXPECT_TRUE(matches("KleeneStar(<num>)", "123456"));
  EXPECT_FALSE(matches("KleeneStar(<num>)", "12a"));
}

TEST(Matcher, KleeneStarOfPair) {
  EXPECT_TRUE(matches("KleeneStar(Concat(<a>,<b>))", "ababab"));
  EXPECT_FALSE(matches("KleeneStar(Concat(<a>,<b>))", "aba"));
}

TEST(Matcher, RepeatExactCount) {
  EXPECT_TRUE(matches("Repeat(<num>,3)", "123"));
  EXPECT_FALSE(matches("Repeat(<num>,3)", "12"));
  EXPECT_FALSE(matches("Repeat(<num>,3)", "1234"));
}

TEST(Matcher, RepeatAtLeast) {
  EXPECT_FALSE(matches("RepeatAtLeast(<num>,2)", "1"));
  EXPECT_TRUE(matches("RepeatAtLeast(<num>,2)", "12"));
  EXPECT_TRUE(matches("RepeatAtLeast(<num>,2)", "123456789"));
}

TEST(Matcher, RepeatRangeWindow) {
  EXPECT_FALSE(matches("RepeatRange(<num>,2,4)", "1"));
  EXPECT_TRUE(matches("RepeatRange(<num>,2,4)", "12"));
  EXPECT_TRUE(matches("RepeatRange(<num>,2,4)", "1234"));
  EXPECT_FALSE(matches("RepeatRange(<num>,2,4)", "12345"));
}

TEST(Matcher, Section2TargetRegex) {
  const char *Target =
      "Concat(RepeatRange(<num>,1,15),Optional(Concat(<.>,RepeatRange(<num>,"
      "1,3))))";
  for (const char *Pos :
       {"123456789.123", "123456789123456.12", "12345.1", "123456789123456"})
    EXPECT_TRUE(matches(Target, Pos)) << Pos;
  for (const char *Neg :
       {"1234567891234567", "123.1234", ".1234", "12345."})
    EXPECT_FALSE(matches(Target, Neg)) << Neg;
}

TEST(Matcher, ReusedMatcherIsConsistent) {
  RegexPtr R = parseRegex("RepeatRange(<num>,2,4)");
  ASSERT_TRUE(R);
  DirectMatcher M(R);
  // Interleave different lengths to exercise the arena reuse.
  EXPECT_TRUE(M.matches("12"));
  EXPECT_FALSE(M.matches("1"));
  EXPECT_TRUE(M.matches("1234"));
  EXPECT_FALSE(M.matches("12345"));
  EXPECT_TRUE(M.matches("123"));
  EXPECT_TRUE(M.matches("12"));
}

// Property sweep: the direct matcher agrees with itself across probe
// strings when queried through a fresh or a reused matcher.
class MatcherCorpus : public ::testing::TestWithParam<const char *> {};

TEST_P(MatcherCorpus, FreshAndReusedMatchersAgree) {
  RegexPtr R = parseRegex(GetParam());
  ASSERT_TRUE(R);
  DirectMatcher Reused(R);
  for (const char *Probe : regel::tests::probeStrings()) {
    EXPECT_EQ(Reused.matches(Probe), matchesDirect(R, Probe))
        << GetParam() << " on \"" << Probe << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, MatcherCorpus,
                         ::testing::ValuesIn(regel::tests::regexCorpus()));

// Differential property test: the bit-parallel matcher against the
// automaton pipeline, compileRegex(R).matches, on seeded random regexes
// over every RegexKind and random strings around the 64-bit row edges.
namespace {

/// Rewrites the repetition corners that the Thompson construction does
/// not take (counts of 0, k2 < k1) into equivalent regexes it does.
RegexPtr oracleForm(const RegexPtr &R) {
  std::vector<RegexPtr> Kids;
  for (const RegexPtr &C : R->children())
    Kids.push_back(oracleForm(C));
  RegexKind K = R->getKind();
  if (!isOperatorKind(K))
    return R;
  if (!isRepeatFamily(K))
    return Regex::makeOperator(K, std::move(Kids));
  int K1 = R->getK1();
  int K2 = K == RegexKind::RepeatRange ? R->getK2() : K1;
  if (K2 < K1)
    return Regex::emptySet();
  if (K1 > 0)
    return Regex::makeOperator(
        K, std::move(Kids),
        K == RegexKind::RepeatRange ? std::vector<int>{K1, K2}
                                    : std::vector<int>{K1});
  if (K == RegexKind::RepeatAtLeast)
    return Regex::kleeneStar(Kids[0]);
  if (K2 == 0)
    return Regex::epsilon();
  return Regex::optional(Regex::repeatRange(Kids[0], 1, K2));
}

RegexPtr randomRegex(Rng &G, unsigned Depth) {
  static const std::vector<CharClass> Leaves = {
      CharClass::singleton('a'), CharClass::singleton('b'),
      CharClass::singleton('1'), CharClass::num(), CharClass::low(),
      CharClass::any()};
  if (Depth == 0 || G.chance(1, 4)) {
    uint64_t Pick = G.nextBelow(Leaves.size() + 2);
    if (Pick == Leaves.size())
      return Regex::epsilon();
    if (Pick == Leaves.size() + 1)
      return Regex::emptySet();
    return Regex::charClass(Leaves[Pick]);
  }
  // Every operator kind, StartsWith through RepeatRange.
  auto K = static_cast<RegexKind>(
      G.nextInRange(static_cast<int>(RegexKind::StartsWith),
                    static_cast<int>(RegexKind::RepeatRange)));
  std::vector<RegexPtr> Kids;
  for (unsigned I = 0; I < numRegexArgs(K); ++I)
    Kids.push_back(randomRegex(G, Depth - 1));
  std::vector<int> Ints;
  if (isRepeatFamily(K))
    Ints.push_back(static_cast<int>(G.nextInRange(0, 3)));
  if (K == RegexKind::RepeatRange) // k2 < k1 included
    Ints.push_back(Ints[0] + static_cast<int>(G.nextInRange(-1, 2)));
  return Regex::makeOperator(K, std::move(Kids), Ints);
}

std::string randomString(Rng &G, size_t Len) {
  static const std::string Alphabet = "ab1a";
  std::string S;
  for (size_t I = 0; I < Len; ++I)
    S.push_back(Alphabet[G.nextBelow(Alphabet.size())]);
  return S;
}

/// Checks \p R against the oracle on \p Inputs; returns the accept count.
size_t expectAgrees(const RegexPtr &R, const std::vector<std::string> &Inputs) {
  Dfa Oracle = compileRegex(oracleForm(R));
  DirectMatcher M(R); // reused across lengths, single- and multi-word
  size_t Accepted = 0;
  for (const std::string &S : Inputs) {
    bool Got = M.matches(S);
    EXPECT_EQ(Got, Oracle.matches(S))
        << printRegex(R) << " on \"" << S << "\" (length " << S.size()
        << ")";
    Accepted += Got;
  }
  return Accepted;
}

std::vector<std::string> probesAround64(Rng &G) {
  std::vector<std::string> Out;
  for (size_t Len : {0, 1, 24, 63, 64, 65, 130}) {
    Out.push_back(randomString(G, Len));
    Out.push_back(std::string(Len, 'a'));
  }
  return Out;
}

} // namespace

TEST(MatcherDifferential, RandomRegexesAgreeWithAutomaton) {
  Rng G(20201);
  size_t Accepted = 0, Checked = 0;
  for (int I = 0; I < 1000; ++I) {
    RegexPtr R = randomRegex(G, 4);
    std::vector<std::string> Inputs = probesAround64(G);
    Accepted += expectAgrees(R, Inputs);
    Checked += Inputs.size();
  }
  EXPECT_GT(Accepted, Checked / 10); // not vacuous

}

TEST(MatcherDifferential, PinnedRepetitionCorners) {
  RegexPtr A = Regex::literal('a');
  std::vector<std::string> Inputs = {"", "a", "aa", "aaa", "b",
                                     std::string(64, 'a'),
                                     std::string(65, 'a')};
  RegexPtr RangeDown =
      Regex::makeOperator(RegexKind::RepeatRange, {A}, {3, 2});
  RegexPtr RepeatZero = Regex::makeOperator(RegexKind::Repeat, {A}, {0});
  RegexPtr AtLeastZero =
      Regex::makeOperator(RegexKind::RepeatAtLeast, {A}, {0});
  EXPECT_EQ(expectAgrees(RangeDown, Inputs), 0u);
  EXPECT_EQ(expectAgrees(RepeatZero, Inputs), 1u);
  EXPECT_EQ(expectAgrees(AtLeastZero, Inputs), 6u);
  EXPECT_TRUE(matchesDirect(AtLeastZero, std::string(65, 'a')));
}

TEST(MatcherDifferential, PinnedNestingAndContainsEpsilon) {
  Rng G(7);
  std::vector<std::string> Inputs = probesAround64(G);
  for (const char *Pattern :
       {"KleeneStar(Not(And(KleeneStar(<a>),Not(eps))))",
        "Not(KleeneStar(And(Not(<b>),Or(<a>,Concat(<a>,<1>)))))",
        "And(KleeneStar(Not(<1>)),Not(KleeneStar(Not(Contains(<b>)))))",
        "KleeneStar(KleeneStar(Optional(<a>)))"})
    expectAgrees(parseRegex(Pattern), Inputs);
  RegexPtr ContainsEps = Regex::contains(Regex::epsilon());
  EXPECT_EQ(expectAgrees(ContainsEps, Inputs), Inputs.size());
}
