//===- tests/nlp/ChartRejectionTest.cpp -----------------------------------===//
//
// Early rejection must not change what the chart parser returns. Every
// case parses a description with nlp::parseChart and with the frozen
// plain chart (ReferenceChart.h) and compares the full root lists: order,
// category, sketch, feature vector and %.17g score of every item.
//
// Weights: the untrained priors, the DeepRegex-trained model the benches
// serve, and eight seeded random vectors, three of them on a coarse grid
// so that exact score ties (which the beam breaks by arrival order) are
// everywhere. Descriptions: all StackOverflow ones and the first 150 of
// deepRegexSet(400, 1); each random vector takes half of the DeepRegex
// ones and an eighth of the StackOverflow ones, rotating, so every
// description meets at least one. A few narrow beams stress the unary
// chain test, where a full bucket meets a target that still has room.
//
//===----------------------------------------------------------------------===//

#include "ReferenceChart.h"
#include "TrainedParser.h"

#include "data/DeepRegexSet.h"
#include "data/StackOverflowSet.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace regel;
using namespace regel::nlp;

namespace {

/// One line per root: category, %.17g score, features, sketch.
std::string render(const std::vector<Derivation> &Roots) {
  std::string Out;
  for (const Derivation &D : Roots) {
    char Score[40];
    std::snprintf(Score, sizeof(Score), "%.17g", D.Score);
    Out += catName(D.Category) + " " + Score + " [";
    for (const auto &[Id, Val] : D.Features)
      Out += std::to_string(Id) + ":" + std::to_string(Val) + " ";
    SketchPtr S = D.Val.asSketch();
    Out += "] " + (S ? printSketch(S) : std::string("-")) + "\n";
  }
  return Out;
}

std::vector<std::string> stackOverflow() {
  std::vector<std::string> Out;
  for (const data::Benchmark &B : data::stackOverflowSet())
    Out.push_back(B.Description);
  return Out;
}

std::vector<std::string> deepRegex150() {
  std::vector<std::string> Out;
  std::vector<data::Benchmark> Set = data::deepRegexSet(400, 1);
  for (size_t I = 0; I < 150 && I < Set.size(); ++I)
    Out.push_back(Set[I].Description);
  return Out;
}

/// Compares both charts on every description, four threads at a time
/// (the parser is const and thread-safe). Returns the differing ones.
std::vector<std::string> differing(const SemanticParser &P,
                                   const std::vector<std::string> &Descs,
                                   const ParserConfig &Cfg = ParserConfig()) {
  std::vector<std::string> Diff(Descs.size());
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Descs.size();) {
      std::vector<Token> Tokens = tokenize(Descs[I]);
      std::string Want =
          render(reference::parseChart(P.grammar(), P.featureSpace(), Tokens,
                                       P.weights(), Cfg));
      std::string Got = render(parseChart(P.grammar(), P.featureSpace(),
                                          Tokens, P.weights(), Cfg));
      if (Got != Want)
        Diff[I] = Descs[I];
    }
  };
  std::vector<std::thread> Pool;
  for (int T = 0; T < 4; ++T)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();
  std::vector<std::string> Out;
  for (std::string &D : Diff)
    if (!D.empty())
      Out.push_back(std::move(D));
  return Out;
}

/// Seeded weights in [-1, 1); on a grid of 0.25 when \p Coarse.
void randomize(SemanticParser &P, uint64_t Seed, bool Coarse) {
  uint64_t State = Seed;
  for (double &W : P.weights()) {
    State = mix64(State);
    W = static_cast<double>(State >> 11) * 0x1.0p-53 * 2 - 1;
    if (Coarse)
      W = std::round(W * 4) / 4;
  }
}

} // namespace

TEST(ChartRejection, UntrainedWeights) {
  SemanticParser P;
  EXPECT_EQ(differing(P, stackOverflow()), std::vector<std::string>());
  EXPECT_EQ(differing(P, deepRegex150()), std::vector<std::string>());
}

TEST(ChartRejection, DeepRegexTrainedWeights) {
  const SemanticParser &P = fixtures::deepRegexTrained().Parser;
  EXPECT_EQ(differing(P, stackOverflow()), std::vector<std::string>());
  EXPECT_EQ(differing(P, deepRegex150()), std::vector<std::string>());
}

TEST(ChartRejection, SeededRandomWeights) {
  const std::vector<std::string> DR = deepRegex150(), SO = stackOverflow();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    // Half the DeepRegex descriptions and an eighth of the StackOverflow
    // ones per vector, rotating: each DeepRegex description meets four
    // vectors, each StackOverflow one a vector.
    std::vector<std::string> Descs;
    for (size_t I = Seed % 2; I < DR.size(); I += 2)
      Descs.push_back(DR[I]);
    for (size_t I = Seed % 8; I < SO.size(); I += 8)
      Descs.push_back(SO[I]);
    SemanticParser P;
    randomize(P, Seed, /*Coarse=*/Seed <= 3);
    EXPECT_EQ(differing(P, Descs), std::vector<std::string>())
        << "seed " << Seed;
  }
}

TEST(ChartRejection, NarrowBeams) {
  std::vector<std::string> Descs = deepRegex150();
  Descs.resize(60);
  for (unsigned Beam : {1u, 2u, 3u}) {
    ParserConfig Cfg;
    Cfg.BeamPerCat = Beam;
    SemanticParser Untrained;
    EXPECT_EQ(differing(Untrained, Descs, Cfg), std::vector<std::string>())
        << "beam " << Beam;
    SemanticParser Coarse;
    randomize(Coarse, 100 + Beam, /*Coarse=*/true);
    EXPECT_EQ(differing(Coarse, Descs, Cfg), std::vector<std::string>())
        << "beam " << Beam;
  }
}
