//===- tests/data/DatasetTest.cpp -----------------------------------------===//

#include "data/DeepRegexSet.h"
#include "data/ExampleGen.h"
#include "data/StackOverflowSet.h"

#include "regex/Matcher.h"
#include "regex/Parser.h"
#include "regex/Printer.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

using namespace regel;
using namespace regel::data;

namespace {

// Smaller generated set for fast tests; the full 200 are exercised once in
// DeepRegexFullSetConsistent.
std::vector<Benchmark> smallSet() { return deepRegexSet(40, 0xabc); }

} // namespace

TEST(DeepRegexSet, Seed1SetIsPinned) {
  // mix64 over "id\tdescription\tground truth\n" of every task of the set
  // nl_deepregex serves, taken when tasks were deduplicated by regex hash:
  // deduplicating by structure moved no task.
  std::vector<Benchmark> Set = deepRegexSet(400, 1);
  ASSERT_EQ(Set.size(), 400u);
  uint64_t H = 0;
  for (const Benchmark &B : Set) {
    const std::string Line = B.Id + "\t" + B.Description + "\t" +
                             printRegex(B.GroundTruth) + "\n";
    for (char C : Line)
      H = mix64(H ^ static_cast<unsigned char>(C));
  }
  EXPECT_EQ(H, 0x919900d4407bfb6dull);
}

TEST(ExampleGen, PositivesInLanguageNegativesOut) {
  Rng R(1);
  RegexPtr Truth = parseRegex("Concat(Repeat(<num>,3),Optional(<->))");
  GeneratedExamples G = generateExamples(Truth, R);
  ASSERT_TRUE(G.Ok);
  DirectMatcher M(Truth);
  for (const std::string &S : G.Initial.Pos)
    EXPECT_TRUE(M.matches(S)) << S;
  for (const std::string &S : G.ExtraPos)
    EXPECT_TRUE(M.matches(S)) << S;
  for (const std::string &S : G.Initial.Neg)
    EXPECT_FALSE(M.matches(S)) << S;
  for (const std::string &S : G.ExtraNeg)
    EXPECT_FALSE(M.matches(S)) << S;
}

TEST(ExampleGen, RespectsCounts) {
  Rng R(2);
  ExampleGenConfig Cfg;
  Cfg.NumPos = 3;
  Cfg.NumNeg = 4;
  GeneratedExamples G =
      generateExamples(parseRegex("RepeatAtLeast(<num>,1)"), R, Cfg);
  ASSERT_TRUE(G.Ok);
  EXPECT_EQ(G.Initial.Pos.size(), 3u);
  EXPECT_EQ(G.Initial.Neg.size(), 4u);
  EXPECT_FALSE(G.ExtraPos.empty());
  EXPECT_FALSE(G.ExtraNeg.empty());
}

TEST(ExampleGen, DegenerateLanguagesRejected) {
  Rng R(3);
  EXPECT_FALSE(generateExamples(Regex::emptySet(), R).Ok);
  EXPECT_FALSE(
      generateExamples(parseRegex("KleeneStar(<any>)"), R).Ok);
  // A 1-string language is too small.
  EXPECT_FALSE(generateExamples(parseRegex("Concat(<a>,<b>)"), R).Ok);
}

TEST(ExampleGen, DeterministicForSeed) {
  Rng R1(7), R2(7);
  RegexPtr Truth = parseRegex("Repeat(<let>,4)");
  GeneratedExamples A = generateExamples(Truth, R1);
  GeneratedExamples B = generateExamples(Truth, R2);
  EXPECT_EQ(A.Initial.Pos, B.Initial.Pos);
  EXPECT_EQ(A.Initial.Neg, B.Initial.Neg);
}

TEST(Benchmark, ExamplesAtGrowsByIteration) {
  auto Set = smallSet();
  ASSERT_FALSE(Set.empty());
  const Benchmark &B = Set[0];
  Examples E0 = B.examplesAt(0);
  Examples E2 = B.examplesAt(2);
  EXPECT_EQ(E0.Pos.size(), B.Initial.Pos.size());
  EXPECT_EQ(E2.Pos.size(), E0.Pos.size() + 2);
  EXPECT_EQ(E2.Neg.size(), E0.Neg.size() + 2);
}

TEST(Benchmark, IterationExamplesStayConsistent) {
  auto Set = smallSet();
  for (const Benchmark &B : Set) {
    DirectMatcher M(B.GroundTruth);
    Examples E = B.examplesAt(4);
    for (const std::string &S : E.Pos)
      EXPECT_TRUE(M.matches(S)) << B.Id;
    for (const std::string &S : E.Neg)
      EXPECT_FALSE(M.matches(S)) << B.Id;
  }
}

TEST(DeepRegex, SmallSetStatistics) {
  auto Set = smallSet();
  EXPECT_EQ(Set.size(), 40u);
  for (const Benchmark &B : Set) {
    EXPECT_TRUE(validateBenchmark(B).empty()) << validateBenchmark(B);
    EXPECT_FALSE(B.Description.empty());
    EXPECT_TRUE(B.GoldSketch);
    EXPECT_GE(B.Initial.Pos.size(), 2u);
    EXPECT_GE(B.Initial.Neg.size(), 2u);
  }
}

TEST(DeepRegex, DistinctGroundTruths) {
  auto Set = smallSet();
  for (size_t I = 0; I < Set.size(); ++I)
    for (size_t J = I + 1; J < Set.size(); ++J)
      EXPECT_FALSE(regexEquals(Set[I].GroundTruth, Set[J].GroundTruth));
}

TEST(DeepRegex, FullSetConsistent) {
  auto Set = deepRegexSet(200);
  EXPECT_EQ(Set.size(), 200u);
  unsigned Bad = 0;
  double AvgSize = 0;
  for (const Benchmark &B : Set) {
    if (!validateBenchmark(B).empty())
      ++Bad;
    AvgSize += B.GroundTruth->size();
  }
  EXPECT_EQ(Bad, 0u);
  AvgSize /= Set.size();
  // Sec. 7: DeepRegex-style regexes average about 5 AST nodes.
  EXPECT_GE(AvgSize, 3.0);
  EXPECT_LE(AvgSize, 7.0);
}

TEST(RootHoleSketch, ReplacesRootOperator) {
  RegexPtr R = parseRegex("Concat(<a>,Repeat(<num>,3))");
  SketchPtr S = rootHoleSketch(R);
  ASSERT_EQ(S->getKind(), SketchKind::Hole);
  ASSERT_EQ(S->components().size(), 2u);
  EXPECT_TRUE(regexEquals(S->components()[0]->regex(), parseRegex("<a>")));
}

TEST(RootHoleSketch, LeafWrapsWholeRegex) {
  RegexPtr R = parseRegex("<num>");
  SketchPtr S = rootHoleSketch(R);
  ASSERT_EQ(S->getKind(), SketchKind::Hole);
  ASSERT_EQ(S->components().size(), 1u);
}

TEST(StackOverflow, AllSixtyTwoConsistent) {
  auto Set = stackOverflowSet();
  EXPECT_EQ(Set.size(), 62u);
  for (const Benchmark &B : Set) {
    EXPECT_TRUE(validateBenchmark(B).empty()) << validateBenchmark(B);
    EXPECT_TRUE(B.GoldSketch) << B.Id;
  }
}

TEST(StackOverflow, HarderThanDeepRegexStyle) {
  // Sec. 7 footnote 10: the SO set has longer text and larger regexes.
  auto SO = stackOverflowSet();
  auto DR = deepRegexSet(100);
  auto AvgWords = [](const std::vector<Benchmark> &Set) {
    double W = 0;
    for (const Benchmark &B : Set)
      W += 1 + std::count(B.Description.begin(), B.Description.end(), ' ');
    return W / Set.size();
  };
  auto AvgSize = [](const std::vector<Benchmark> &Set) {
    double S = 0;
    for (const Benchmark &B : Set)
      S += B.GroundTruth->size();
    return S / Set.size();
  };
  EXPECT_GT(AvgWords(SO), AvgWords(DR));
  EXPECT_GT(AvgSize(SO), AvgSize(DR));
}

TEST(StackOverflow, GoldSketchesAdmitGroundTruth) {
  // The hand-written sketch labels must actually admit the ground truth
  // (with a generous depth budget) — otherwise they'd be useless hints.
  auto Set = stackOverflowSet();
  unsigned Admitting = 0;
  for (const Benchmark &B : Set)
    if (sketchAdmits(B.GoldSketch, B.GroundTruth, 4))
      ++Admitting;
  // A few labels are deliberately partial (mimicking vague utterances);
  // the overwhelming majority must admit the truth.
  EXPECT_GE(Admitting, Set.size() * 3 / 4) << Admitting;
}
