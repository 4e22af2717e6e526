//===- nlp/Derivation.h - Chart items ----------------------------*- C++ -*-//
//
// Part of the Regel reproduction. A derivation is one chart item: a
// category plus semantic value over a token span, with its aggregated
// feature vector and model score.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_NLP_DERIVATION_H
#define REGEL_NLP_DERIVATION_H

#include "nlp/Features.h"

namespace regel::nlp {

/// One chart item.
struct Derivation {
  Cat Category;
  /// How many features fired, counting repeats (the sum of Features'
  /// values): it bounds the rounding error in Score.
  uint32_t Fired = 0;
  SemValue Val;
  FeatureVec Features;
  double Score = 0;

  /// Bucket hash of the dedup identity: equal category and structurally
  /// equal semantics (SemValue::operator==).
  size_t keyHash() const {
    return Val.hash() * 31 + static_cast<size_t>(Category);
  }
};

} // namespace regel::nlp

#endif // REGEL_NLP_DERIVATION_H
