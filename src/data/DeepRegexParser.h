//===- data/DeepRegexParser.h - The DeepRegex-trained parser ---*- C++ -*-===//
//
// Part of the Regel reproduction. The semantic parser the DeepRegex
// benches and the serving benchmark use is trained by one recipe
// (training split, label order, epochs); it lives here so that the benches
// and the tests that pin its weights train the same model.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_DATA_DEEPREGEXPARSER_H
#define REGEL_DATA_DEEPREGEXPARSER_H

#include "nlp/Training.h"

namespace regel::data {

/// Trains \p Parser on a DeepRegex split disjoint from the evaluated ones;
/// returns the report of the last epoch.
nlp::TrainReport trainDeepRegexParser(nlp::SemanticParser &Parser);

} // namespace regel::data

#endif // REGEL_DATA_DEEPREGEXPARSER_H
