//===- tests/nlp/TrainingTest.cpp -----------------------------------------===//

#include "TrainedParser.h"

#include "sketch/SketchParser.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace regel;
using namespace regel::nlp;

namespace {

std::vector<TrainExample> tinyCorpus() {
  auto Mk = [](const char *U, const char *S) {
    return TrainExample{U, parseSketch(S)};
  };
  return {
      Mk("a letter followed by 3 digits", "Concat(<let>,Repeat(<num>,3))"),
      Mk("2 digits followed by a comma", "Concat(Repeat(<num>,2),<,>)"),
      Mk("a vowel followed by 2 letters", "Concat(<vow>,Repeat(<let>,2))"),
      Mk("4 digits followed by a dash", "Concat(Repeat(<num>,4),<->)"),
      Mk("a capital letter followed by 2 digits",
         "Concat(<cap>,Repeat(<num>,2))"),
      Mk("strings that start with a capital letter",
         "hole{StartsWith(<cap>)}"),
      Mk("must end with a semicolon", "hole{EndsWith(<;>)}"),
      Mk("up to 4 digits", "hole{RepeatRange(<num>,1,4)}"),
  };
}

/// mix64 over the weights printed "%.17g\n": any change in any bit of any
/// weight changes it.
uint64_t weightsDigest(const std::vector<double> &Weights) {
  uint64_t H = 0;
  char Buf[40];
  for (double W : Weights) {
    std::snprintf(Buf, sizeof(Buf), "%.17g\n", W);
    for (const char *P = Buf; *P; ++P)
      H = mix64(H ^ static_cast<unsigned char>(*P));
  }
  return H;
}

} // namespace

// Training reads the parser's whole beam (softmax over every root, the
// gradient from their feature vectors), so these digests pin the chart's
// full output along every step of two training runs: the tiny corpus, and
// the DeepRegex recipe the benches serve (TrainedParser.h).
// They were taken when chart scores moved onto the 2^-32 weight grid
// (Features.h): the DeepRegex run still reaches 203 and ranks 99 first,
// and its trained weights give the same top-10 lists, to 1e-6, parsed on
// or off the grid.
TEST(Training, WeightsDigestIsPinned) {
  {
    SemanticParser P;
    TrainConfig Cfg;
    Cfg.Epochs = 5;
    trainParser(P, tinyCorpus(), Cfg);
    EXPECT_EQ(weightsDigest(P.weights()), 0x7474c0f35a7f1059ull);
  }
  {
    const fixtures::TrainedParser &T = fixtures::deepRegexTrained();
    EXPECT_EQ(weightsDigest(T.Parser.weights()), 0x217af2291deaa61cull);
    EXPECT_EQ(T.Report.Reachable, 203u);
    EXPECT_EQ(T.Report.Top1Correct, 99u);
  }
}

TEST(Training, GoldReachableOnTinyCorpus) {
  SemanticParser P;
  TrainConfig Cfg;
  Cfg.Epochs = 1;
  TrainReport Report = trainParser(P, tinyCorpus(), Cfg);
  EXPECT_EQ(Report.Examples, tinyCorpus().size());
  // The grammar must be able to derive most gold sketches.
  EXPECT_GE(Report.Reachable, Report.Examples - 2);
}

TEST(Training, ImprovesTop1OnTrainingSet) {
  SemanticParser P;
  TrainConfig One;
  One.Epochs = 1;
  TrainReport Before = trainParser(P, tinyCorpus(), One);
  TrainConfig More;
  More.Epochs = 5;
  TrainReport After = trainParser(P, tinyCorpus(), More);
  EXPECT_GE(After.Top1Correct, Before.Top1Correct);
  EXPECT_GE(After.Top1Correct, After.Reachable / 2);
}

TEST(Training, WeightsActuallyChange) {
  SemanticParser P;
  std::vector<double> Initial = P.weights();
  TrainConfig Cfg;
  Cfg.Epochs = 2;
  trainParser(P, tinyCorpus(), Cfg);
  EXPECT_NE(P.weights(), Initial);
}

TEST(Training, EmptyDataIsNoop) {
  SemanticParser P;
  std::vector<double> Initial = P.weights();
  TrainReport R = trainParser(P, {}, TrainConfig());
  EXPECT_EQ(R.Examples, 0u);
  EXPECT_EQ(P.weights(), Initial);
}

TEST(Training, UnreachableGoldSkipped) {
  SemanticParser P;
  // Nonsense gold sketch that the grammar cannot derive from the text.
  std::vector<TrainExample> Data{
      {"a letter followed by 3 digits",
       parseSketch("And(hole{<hex>},hole{<vow>})")}};
  TrainReport R = trainParser(P, Data, TrainConfig());
  EXPECT_EQ(R.Reachable, 0u);
}
