//===- tests/nlp/TrainedParser.h - The benches' trained parser --*- C++ -*-===//
//
// The DeepRegex-trained parser the benches build and perfbench serves
// (data::trainDeepRegexParser), trained once per test binary.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_TESTS_NLP_TRAINEDPARSER_H
#define REGEL_TESTS_NLP_TRAINEDPARSER_H

#include "data/DeepRegexParser.h"

namespace regel::nlp::fixtures {

struct TrainedParser {
  SemanticParser Parser;
  TrainReport Report;
};

/// The parser and the report of its last training epoch.
inline const TrainedParser &deepRegexTrained() {
  static const TrainedParser Trained = [] {
    TrainedParser T;
    T.Report = data::trainDeepRegexParser(T.Parser);
    return T;
  }();
  return Trained;
}

} // namespace regel::nlp::fixtures

#endif // REGEL_TESTS_NLP_TRAINEDPARSER_H
