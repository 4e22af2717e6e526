//===- nlp/Features.h - Log-linear features ----------------------*- C++ -*-//
//
// Part of the Regel reproduction. Feature layout for the discriminative
// log-linear model of Sec. 5.3: rule-fire features, lexical-category
// features, a skipped-token feature and span-length features.
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

/// dotFeatures of V with 1 added to each of the \p NumIds features \p Ids
/// (ascending; an id may repeat), without building that vector: the same
/// terms, summed in the same order, so the result is bit-identical to
/// copying V, calling addFeature for each id and then dotFeatures. Feature
/// values are counts, so the per-id sums are exact in any order.
double dotFeaturesWith(const FeatureVec &V, const uint32_t *Ids,
                       size_t NumIds, const std::vector<double> &Weights);

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
