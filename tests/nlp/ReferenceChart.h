//===- tests/nlp/ReferenceChart.h - Frozen chart parser ---------*- C++ -*-//
//
// A test-only, frozen copy of the chart parser as it stood before early
// rejection: every offer runs Rule::Apply, builds its merged feature
// vector and probes the cell's identity index, and only the final beam
// cuts each (cell, category) bucket. Differential tests and the chart
// fuzz harness compare nlp::parseChart against it item for item. Do not
// optimise it: its value is that it stays the plain algorithm.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_TESTS_NLP_REFERENCECHART_H
#define REGEL_TESTS_NLP_REFERENCECHART_H

#include "nlp/ChartParser.h"

namespace regel::nlp::reference {

/// parseChart without early rejection.
std::vector<Derivation> parseChart(const Grammar &G, const FeatureSpace &FS,
                                   const std::vector<Token> &Tokens,
                                   const std::vector<double> &Weights,
                                   const ParserConfig &Cfg = ParserConfig());

} // namespace regel::nlp::reference

#endif // REGEL_TESTS_NLP_REFERENCECHART_H
