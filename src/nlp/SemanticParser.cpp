//===- nlp/SemanticParser.cpp ---------------------------------------------===//

#include "nlp/SemanticParser.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

using namespace regel;
using namespace regel::nlp;

SemanticParser::SemanticParser() : G(), FS(G) {
  Weights.assign(FS.size(), 0.0);
  // Cold-start priors, refined by training: skipping words costs a little
  // (prefer derivations that explain more of the sentence); each rule
  // application costs a whisker (prefer simpler derivations); lexical
  // anchors earn a little (prefer real coverage over skipping).
  Weights[FS.skipFeature()] = -0.4;
  for (uint32_t I = 0; I < G.rules().size(); ++I)
    Weights[FS.ruleFeature(I)] = -0.01;
  for (unsigned C = 0; C < NumCats; ++C)
    Weights[FS.lexFeature(static_cast<Cat>(C))] = 0.05;
}

bool SemanticParser::saveWeights(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "regel-weights %zu\n", Weights.size());
  for (double W : Weights)
    std::fprintf(F, "%.17g\n", W);
  std::fclose(F);
  return true;
}

bool SemanticParser::loadWeights(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return false;
  size_t N = 0;
  bool Ok = std::fscanf(F, "regel-weights %zu", &N) == 1 &&
            N == Weights.size();
  if (Ok) {
    for (size_t I = 0; I < N && Ok; ++I)
      Ok = std::fscanf(F, "%lf", &Weights[I]) == 1;
  }
  std::fclose(F);
  return Ok;
}

std::vector<Derivation>
SemanticParser::parseDerivations(const std::string &Utterance) const {
  std::vector<Token> Tokens = tokenize(Utterance);
  return parseChart(G, FS, Tokens, Weights, Cfg);
}

std::vector<ScoredSketch>
SemanticParser::parse(const std::string &Utterance, unsigned TopN) const {
  std::vector<Derivation> Roots = parseDerivations(Utterance);
  std::vector<ScoredSketch> Out;
  for (const Derivation &D : Roots) {
    SketchPtr S = D.Val.asSketch();
    if (!S)
      continue;
    // Exact structural dedup; Out holds at most TopN entries, so a linear
    // scan is cheap. Roots are ranked by score already: the first
    // occurrence is the best.
    if (std::any_of(Out.begin(), Out.end(), [&](const ScoredSketch &O) {
          return O.Sketch->equals(*S);
        }))
      continue;
    Out.push_back({std::move(S), D.Score});
    if (Out.size() >= TopN)
      break;
  }
  return Out;
}
