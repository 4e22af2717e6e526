//===- engine/Estimator.cpp -----------------------------------------------===//

#include "engine/Estimator.h"

#include <algorithm>

using namespace regel::engine;

namespace {

void feed(double Alpha, double Sample, double &Ewma, uint64_t &N) {
  Sample = std::max(Sample, 0.0);
  // First sample seeds the average outright: warming up from an arbitrary
  // zero would under-estimate (and under-shed) for the first ~1/Alpha
  // jobs, exactly the window where an overloaded cold engine needs the
  // estimate most.
  Ewma = N == 0 ? Sample : Alpha * Sample + (1.0 - Alpha) * Ewma;
  ++N;
}

} // namespace

void ServiceTimeEstimator::recordSample(Priority P, double ExecMs) {
  MutexLock Guard(M);
  Cell &C = ByClass[static_cast<unsigned>(P)];
  feed(Alpha, ExecMs, C.Ewma, C.N);
  feed(Alpha, ExecMs, Blended.Ewma, Blended.N);
}

double ServiceTimeEstimator::estimateMs(Priority P) const {
  MutexLock Guard(M);
  const Cell &C = ByClass[static_cast<unsigned>(P)];
  return C.N == 0 ? -1.0 : C.Ewma;
}

double ServiceTimeEstimator::blendedEstimateMs() const {
  MutexLock Guard(M);
  return Blended.N == 0 ? -1.0 : Blended.Ewma;
}

uint64_t ServiceTimeEstimator::samples(Priority P) const {
  MutexLock Guard(M);
  return ByClass[static_cast<unsigned>(P)].N;
}
