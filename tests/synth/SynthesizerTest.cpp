//===- tests/synth/SynthesizerTest.cpp ------------------------------------===//
//
// End-to-end tests of the Fig. 9 worklist algorithm, including its
// ablation configurations (Regel-Enum / Regel-Approx / full).
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "regex/Matcher.h"
#include "regex/Parser.h"
#include "regex/Printer.h"
#include "sketch/SketchParser.h"

#include <gtest/gtest.h>

using namespace regel;

namespace {

Examples digitsDashDigits() {
  Examples E;
  E.Pos = {"123-4567", "000-0000", "999-1234"};
  E.Neg = {"1234567", "12-34567", "123-456", "abc-defg", "123-45678"};
  return E;
}

void expectConsistent(const SynthResult &R, const Examples &E) {
  ASSERT_TRUE(R.solved());
  for (const RegexPtr &Sol : R.Solutions) {
    for (const std::string &S : E.Pos)
      EXPECT_TRUE(matchesDirect(Sol, S)) << printRegex(Sol) << " ! " << S;
    for (const std::string &S : E.Neg)
      EXPECT_FALSE(matchesDirect(Sol, S)) << printRegex(Sol) << " ! " << S;
  }
}

} // namespace

TEST(Synthesizer, CompletesGuidedSketch) {
  SketchPtr S =
      parseSketch("Concat(hole{Repeat(<num>,3)},hole{<->,Repeat(<num>,4)})");
  Examples E = digitsDashDigits();
  SynthConfig Cfg;
  Cfg.BudgetMs = 20000;
  Synthesizer Engine(Cfg);
  SynthResult R = Engine.run(S, E);
  expectConsistent(R, E);
}

TEST(Synthesizer, SolvesWithConcreteSketch) {
  // A fully concrete sketch that satisfies the examples returns instantly.
  SketchPtr S = Sketch::concrete(
      parseRegex("Concat(Repeat(<num>,3),Concat(<->,Repeat(<num>,4)))"));
  Examples E = digitsDashDigits();
  Synthesizer Engine;
  SynthResult R = Engine.run(S, E);
  ASSERT_TRUE(R.solved());
  EXPECT_LE(R.Stats.Pops, 2u);
}

TEST(Synthesizer, ConcreteSketchInconsistentFails) {
  SketchPtr S = Sketch::concrete(parseRegex("Repeat(<num>,3)"));
  Examples E = digitsDashDigits();
  Synthesizer Engine;
  SynthResult R = Engine.run(S, E);
  EXPECT_FALSE(R.solved());
  EXPECT_TRUE(R.Exhausted);
}

TEST(Synthesizer, PureExamplesSimpleTask) {
  // Regel-PBE flavour: unconstrained sketch, easy language (2 digits).
  Examples E;
  E.Pos = {"12", "99", "07"};
  E.Neg = {"1", "123", "ab", ""};
  SynthConfig Cfg;
  Cfg.BudgetMs = 20000;
  Synthesizer Engine(Cfg);
  SynthResult R = Engine.run(Sketch::unconstrained(), E);
  expectConsistent(R, E);
}

TEST(Synthesizer, TopKReturnsDistinctSolutions) {
  Examples E;
  E.Pos = {"12", "99"};
  E.Neg = {"1", "123", "ab"};
  SynthConfig Cfg;
  Cfg.BudgetMs = 20000;
  Cfg.TopK = 3;
  Synthesizer Engine(Cfg);
  SynthResult R = Engine.run(Sketch::unconstrained(), E);
  ASSERT_GE(R.Solutions.size(), 2u);
  for (size_t I = 0; I < R.Solutions.size(); ++I)
    for (size_t J = I + 1; J < R.Solutions.size(); ++J)
      EXPECT_FALSE(regexEquals(R.Solutions[I], R.Solutions[J]));
  expectConsistent(R, E);
}

TEST(Synthesizer, BudgetProducesTimeout) {
  Examples E;
  // Unsatisfiable-ish hard task with a tiny budget: must time out cleanly.
  E.Pos = {"aQ3!x", "zz9#b"};
  E.Neg = {"aQ3!", "zz9#"};
  SynthConfig Cfg;
  Cfg.BudgetMs = 50;
  Synthesizer Engine(Cfg);
  SynthResult R = Engine.run(Sketch::unconstrained(), E);
  EXPECT_TRUE(R.TimedOut || R.solved() || R.Exhausted);
  EXPECT_LE(R.Stats.TimeMs, 5000.0);
}

TEST(Synthesizer, MaxPopsCap) {
  Examples E;
  E.Pos = {"ab12xy", "cd34"};
  E.Neg = {"x"};
  SynthConfig Cfg;
  Cfg.MaxPops = 5;
  Cfg.TopK = 50; // unreachable: force the cap to trigger
  Synthesizer Engine(Cfg);
  SynthResult R = Engine.run(Sketch::unconstrained(), E);
  EXPECT_LE(R.Stats.Pops, 5u);
}

struct AblationCase {
  const char *Name;
  bool UseApprox;
  bool UseSymbolic;
};

class SynthesizerAblation : public ::testing::TestWithParam<AblationCase> {};

TEST_P(SynthesizerAblation, AllConfigurationsSolveEasySketch) {
  // Every ablation (Regel-Enum, Regel-Approx, full Regel) must still be
  // able to complete an easy guided sketch — they differ in speed only.
  SketchPtr S = parseSketch("Concat(hole{Repeat(<num>,2)},hole{<:>})");
  Examples E;
  E.Pos = {"12:", "07:"};
  E.Neg = {"12", ":12", "1:", "123:"};
  SynthConfig Cfg;
  Cfg.UseApprox = GetParam().UseApprox;
  Cfg.UseSymbolic = GetParam().UseSymbolic;
  Cfg.BudgetMs = 20000;
  Cfg.MaxInt = 6;
  Synthesizer Engine(Cfg);
  SynthResult R = Engine.run(S, E);
  expectConsistent(R, E);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SynthesizerAblation,
    ::testing::Values(AblationCase{"Enum", false, false},
                      AblationCase{"Approx", true, false},
                      AblationCase{"Full", true, true}),
    [](const ::testing::TestParamInfo<AblationCase> &Info) {
      return Info.param.Name;
    });

TEST(Synthesizer, ApproxPrunesMoreThanEnum) {
  SketchPtr S =
      parseSketch("Concat(hole{Repeat(<num>,3)},hole{<->,Repeat(<num>,4)})");
  Examples E;
  E.Pos = {"123-4567", "000-0000"};
  E.Neg = {"1234567", "12-34567", "123-456"};
  SynthConfig Enum;
  Enum.UseApprox = false;
  Enum.UseSymbolic = false;
  Enum.BudgetMs = 30000;
  Enum.MaxInt = 6;
  SynthConfig Full;
  Full.BudgetMs = 30000;
  Full.MaxInt = 6;
  Synthesizer EnumEngine(Enum), FullEngine(Full);
  SynthResult REnum = EnumEngine.run(S, E);
  SynthResult RFull = FullEngine.run(S, E);
  ASSERT_TRUE(REnum.solved());
  ASSERT_TRUE(RFull.solved());
  // Regel-Enum never prunes; the full engine prunes and, thanks to the
  // approximations plus symbolic integers, generates fewer expansions.
  EXPECT_EQ(REnum.Stats.PrunedInfeasible, 0u);
  EXPECT_GT(RFull.Stats.PrunedInfeasible, 0u);
  EXPECT_LE(RFull.Stats.Expansions, REnum.Stats.Expansions);
}

TEST(Synthesizer, SubsumptionSkipsQueries) {
  // Contains(<num>) fails the positives, so the later StartsWith(<num>) /
  // EndsWith(<num>) candidates must be skipped without membership queries.
  // A skip is only sound if the skipped candidate would have failed too:
  // under a pop cap the answers, in order, match a run that queries every
  // candidate.
  Examples E;
  E.Pos = {"xy", "qt"};
  E.Neg = {"x"};
  SynthConfig Cfg;
  Cfg.MaxPops = 400;
  Cfg.TopK = 12; // keep searching after the first solutions
  SynthConfig NoSkip = Cfg;
  NoSkip.UseSubsumption = false;
  Synthesizer Skipping(Cfg), Querying(NoSkip);
  SynthResult RS = Skipping.run(Sketch::unconstrained(), E);
  SynthResult RQ = Querying.run(Sketch::unconstrained(), E);
  ASSERT_TRUE(RS.solved());
  EXPECT_GT(RS.Stats.SubsumptionSkips, 0u);
  EXPECT_EQ(RQ.Stats.SubsumptionSkips, 0u);
  ASSERT_EQ(RS.Solutions.size(), RQ.Solutions.size());
  for (size_t I = 0; I < RS.Solutions.size(); ++I)
    EXPECT_EQ(printRegex(RS.Solutions[I]), printRegex(RQ.Solutions[I])) << I;
  EXPECT_EQ(RS.Stats.Pops, RQ.Stats.Pops);
}

TEST(Synthesizer, Section2EndToEnd) {
  // The paper's flagship example, from the Eq. 1 sketch.
  SketchPtr S = parseSketch(
      "Concat(hole{<num>,<,>},hole{RepeatRange(<num>,1,3),<,>})");
  Examples E;
  E.Pos = {"123456789.123", "123456789123456.12", "12345.1",
           "123456789123456"};
  E.Neg = {"1234567891234567", "123.1234", "1.12345", ".1234"};
  SynthConfig Cfg;
  Cfg.BudgetMs = 60000;
  Synthesizer Engine(Cfg);
  SynthResult R = Engine.run(S, E);
  expectConsistent(R, E);
}
