//===- tests/core/RegelTest.cpp -------------------------------------------===//

#include "core/Baselines.h"
#include "core/Regel.h"

#include "regex/Matcher.h"
#include "regex/Parser.h"
#include "regex/Printer.h"
#include "sketch/SketchParser.h"

#include <gtest/gtest.h>

using namespace regel;

namespace {

std::shared_ptr<nlp::SemanticParser> sharedParser() {
  static auto P = std::make_shared<nlp::SemanticParser>();
  return P;
}

} // namespace

TEST(Regel, EndToEndEasyTask) {
  RegelConfig Cfg;
  Cfg.BudgetMs = 20000;
  Cfg.NumSketches = 10;
  Regel Tool(sharedParser(), Cfg);
  Examples E;
  E.Pos = {"A12", "Z99", "Q07"};
  E.Neg = {"12", "AB12", "A1", "a12"};
  RegelResult R =
      Tool.synthesize("a capital letter followed by 2 digits", E);
  ASSERT_TRUE(R.solved());
  DirectMatcher M(R.Answers[0].Regex);
  for (const std::string &S : E.Pos)
    EXPECT_TRUE(M.matches(S));
  for (const std::string &S : E.Neg)
    EXPECT_FALSE(M.matches(S));
  EXPECT_FALSE(R.Sketches.empty());
}

TEST(Regel, SketchListDrivesEngine) {
  RegelConfig Cfg;
  Cfg.BudgetMs = 10000;
  Regel Tool(sharedParser(), Cfg);
  Examples E;
  E.Pos = {"12:", "99:"};
  E.Neg = {"12", ":", "1:"};
  std::vector<SketchPtr> Sketches{
      parseSketch("Concat(hole{Repeat(<num>,2)},hole{<:>})")};
  RegelResult R = Tool.synthesizeFromSketches(Sketches, E);
  ASSERT_TRUE(R.solved());
  EXPECT_EQ(R.Answers[0].SketchRank, 0u);
}

TEST(Regel, TopKCollectsAcrossSketches) {
  RegelConfig Cfg;
  Cfg.BudgetMs = 10000;
  Cfg.TopK = 2;
  Regel Tool(sharedParser(), Cfg);
  Examples E;
  E.Pos = {"ab", "cd"};
  E.Neg = {"a", "abc"};
  std::vector<SketchPtr> Sketches{
      parseSketch("hole{Repeat(<let>,2)}"),
      parseSketch("hole{Repeat(<low>,2)}")};
  RegelResult R = Tool.synthesizeFromSketches(Sketches, E);
  EXPECT_GE(R.Answers.size(), 2u);
  // Distinct answers only.
  for (size_t I = 0; I < R.Answers.size(); ++I)
    for (size_t J = I + 1; J < R.Answers.size(); ++J)
      EXPECT_FALSE(
          regexEquals(R.Answers[I].Regex, R.Answers[J].Regex));
}

TEST(Regel, UnparseableDescriptionFallsBackToPbe) {
  RegelConfig Cfg;
  Cfg.BudgetMs = 10000;
  Regel Tool(sharedParser(), Cfg);
  Examples E;
  E.Pos = {"11", "22"};
  E.Neg = {"1", "111"};
  RegelResult R = Tool.synthesize("qwerty asdf zxcv", E);
  // The parser yields nothing; the driver must still try pure PBE.
  ASSERT_EQ(R.Sketches.size(), 1u);
  EXPECT_TRUE(sketchEquals(R.Sketches[0], Sketch::unconstrained()));
  EXPECT_TRUE(R.solved());
}

TEST(Regel, DescriptionJobsAnswerLikePreParsedSketches) {
  // A description job parses on an engine worker; in deterministic mode
  // its answers must be exactly those of the same job submitted with the
  // sketch list parsed up front.
  RegelConfig Cfg;
  Cfg.NumSketches = 4;
  Cfg.TopK = 2;
  Cfg.Threads = 2;
  Cfg.BudgetMs = 0;
  Cfg.Synth.MaxPops = 3000;
  Cfg.Deterministic = true;
  Regel Tool(sharedParser(), Cfg);
  struct Query {
    const char *Desc;
    Examples E;
  };
  const std::vector<Query> Queries = {
      {"a capital letter followed by 2 digits",
       {{"A12", "Z99", "Q07"}, {"12", "AB12", "a12"}}},
      {"numbers separated by commas", {{"1,22,333", "7"}, {"1,", ",1", "a"}}},
      {"strings that start with a letter and end with a digit",
       {{"a1", "bc2", "Xy9"}, {"1a", "ab", "9"}}},
  };
  for (const Query &Q : Queries) {
    const RegelResult Deferred = Tool.synthesize(Q.Desc, Q.E);
    const std::vector<SketchPtr> Sketches =
        sketchesForDescription(*sharedParser(), Q.Desc, Cfg.NumSketches);
    const RegelResult Direct = Tool.synthesizeFromSketches(Sketches, Q.E);
    ASSERT_EQ(Deferred.Sketches.size(), Sketches.size()) << Q.Desc;
    for (size_t I = 0; I < Sketches.size(); ++I)
      EXPECT_TRUE(sketchEquals(Deferred.Sketches[I], Sketches[I])) << Q.Desc;
    ASSERT_EQ(Deferred.Answers.size(), Direct.Answers.size()) << Q.Desc;
    for (size_t I = 0; I < Direct.Answers.size(); ++I) {
      EXPECT_EQ(printRegex(Deferred.Answers[I].Regex),
                printRegex(Direct.Answers[I].Regex))
          << Q.Desc;
      EXPECT_EQ(Deferred.Answers[I].SketchRank, Direct.Answers[I].SketchRank);
    }
    EXPECT_GE(Deferred.ParseMs, 0.0);
  }
}

TEST(Baselines, RegelPbeSolvesTrivialTask) {
  Examples E;
  E.Pos = {"7", "3"};
  E.Neg = {"77", "a", ""};
  SynthConfig Cfg;
  Cfg.BudgetMs = 5000;
  SynthResult R = regelPbe(E, Cfg);
  ASSERT_TRUE(R.solved());
  EXPECT_TRUE(matchesDirect(R.Solutions[0], "5"));
}

TEST(Baselines, NlOnlyTranslatesDirectly) {
  RegexPtr R = nlOnlyRegex(*sharedParser(),
                           "a letter followed by 3 digits");
  ASSERT_TRUE(R);
  EXPECT_TRUE(matchesDirect(R, "a123"));
  EXPECT_FALSE(matchesDirect(R, "a12"));
}

TEST(Baselines, NlOnlyNullOnGibberish) {
  EXPECT_FALSE(nlOnlyRegex(*sharedParser(), "zzz qqq www"));
}
