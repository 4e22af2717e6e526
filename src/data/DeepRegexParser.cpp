//===- data/DeepRegexParser.cpp -------------------------------------------===//

#include "data/DeepRegexParser.h"

#include "data/DeepRegexSet.h"

using namespace regel;

nlp::TrainReport
regel::data::trainDeepRegexParser(nlp::SemanticParser &Parser) {
  // Disjoint training split: same synchronous grammar, different seed.
  // Each benchmark contributes two supervision signals: the hole-ified
  // sketch label (Sec. 7) and the concrete regex, so the model learns to
  // rank faithful structured parses above marker-dropping ones.
  std::vector<Benchmark> Train = deepRegexSet(150, 0x7ea1);
  std::vector<nlp::TrainExample> Examples;
  for (const Benchmark &B : Train)
    Examples.push_back({B.Description, B.GoldSketch});
  for (const Benchmark &B : Train)
    Examples.push_back({B.Description, Sketch::concrete(B.GroundTruth)});
  nlp::TrainConfig Cfg;
  Cfg.Epochs = 3;
  return nlp::trainParser(Parser, Examples, Cfg);
}
