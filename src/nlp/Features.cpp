//===- nlp/Features.cpp ---------------------------------------------------===//

#include "nlp/Features.h"

#include <algorithm>
#include <cmath>

using namespace regel::nlp;

void regel::nlp::addFeature(FeatureVec &V, uint32_t Id, float Delta) {
  auto It = std::lower_bound(
      V.begin(), V.end(), Id,
      [](const std::pair<uint32_t, float> &P, uint32_t I) {
        return P.first < I;
      });
  if (It != V.end() && It->first == Id) {
    It->second += Delta;
    return;
  }
  V.insert(It, {Id, Delta});
}

void regel::nlp::mergeFeaturesInto(FeatureVec &Out, const FeatureVec &V,
                                   const FeatureVec &W) {
  Out.clear();
  Out.reserve(V.size() + W.size());
  size_t I = 0, J = 0;
  while (I < V.size() && J < W.size()) {
    if (V[I].first < W[J].first)
      Out.push_back(V[I++]);
    else if (W[J].first < V[I].first)
      Out.push_back(W[J++]);
    else {
      Out.push_back({V[I].first, V[I].second + W[J].second});
      ++I;
      ++J;
    }
  }
  Out.insert(Out.end(), V.begin() + static_cast<ptrdiff_t>(I), V.end());
  Out.insert(Out.end(), W.begin() + static_cast<ptrdiff_t>(J), W.end());
}

double regel::nlp::dotFeatures(const FeatureVec &V,
                               const std::vector<double> &Weights) {
  double Sum = 0;
  for (const auto &[Id, Val] : V)
    if (Id < Weights.size())
      Sum += Weights[Id] * Val;
  return Sum;
}

double regel::nlp::gridWeight(double W) {
  return std::ldexp(std::nearbyint(std::ldexp(W, WeightGridBits)),
                    -WeightGridBits);
}
