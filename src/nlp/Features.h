//===- nlp/Features.h - Log-linear features ----------------------*- C++ -*-//
//
// Part of the Regel reproduction. Feature layout for the discriminative
// log-linear model of Sec. 5.3: rule-fire features, lexical-category
// features, a skipped-token feature and span-length features, and the
// weight grid on which chart scores are exact.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_NLP_FEATURES_H
#define REGEL_NLP_FEATURES_H

#include "nlp/Grammar.h"

#include <vector>

namespace regel::nlp {

/// Sparse feature vector (sorted by id, ids unique).
using FeatureVec = std::vector<std::pair<uint32_t, float>>;

/// Adds \p Delta to feature \p Id in \p V (keeps V sorted).
void addFeature(FeatureVec &V, uint32_t Id, float Delta);

/// Out = V + W (sparse merge; a shared id sums V's value then W's).
/// Out must alias neither input; its capacity is reused.
void mergeFeaturesInto(FeatureVec &Out, const FeatureVec &V,
                       const FeatureVec &W);

/// Dot product with a dense weight vector, summed in id order.
double dotFeatures(const FeatureVec &V, const std::vector<double> &Weights);

/// Chart scores are exact sums. The chart parser rounds every weight to a
/// multiple of 2^-WeightGridBits (gridWeight) once per parse, and feature
/// values are counts, so every product and partial sum of a score is a
/// whole number of 2^-WeightGridBits units. It is therefore exact while its
/// magnitude stays below ExactScoreBound (2^53 units): the largest |weight|
/// times the number of features a derivation fires, counting repeats, must
/// stay below it, which the parser asserts per parse. A score then equals
/// the sum of its terms in any order, bit for bit: its children's scores
/// plus the weights of the features it adds, or dotFeatures over its
/// feature vector.
constexpr int WeightGridBits = 32;
constexpr double ExactScoreBound = 0x1p21;

/// \p W rounded to the nearest multiple of 2^-WeightGridBits (ties to even).
double gridWeight(double W);

/// Feature-id layout derived from a grammar.
class FeatureSpace {
public:
  explicit FeatureSpace(const Grammar &G)
      : NumRules(static_cast<uint32_t>(G.rules().size())) {}

  uint32_t ruleFeature(uint32_t RuleIdx) const { return RuleIdx; }
  uint32_t lexFeature(Cat C) const { return NumRules + C; }
  uint32_t skipFeature() const { return NumRules + NumCats; }
  uint32_t spanFeature(Cat C, unsigned Len) const {
    unsigned Bucket = Len >= SpanBuckets ? SpanBuckets - 1 : Len - 1;
    return NumRules + NumCats + 1 + C * SpanBuckets + Bucket;
  }
  uint32_t size() const {
    return NumRules + NumCats + 1 + NumCats * SpanBuckets;
  }

  static constexpr unsigned SpanBuckets = 6;

private:
  uint32_t NumRules;
};

} // namespace regel::nlp

#endif // REGEL_NLP_FEATURES_H
