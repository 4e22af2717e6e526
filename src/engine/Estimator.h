//===- engine/Estimator.h - Per-class service-time estimator ----*- C++ -*-===//
//
// Part of the Regel reproduction. An exponentially weighted moving average
// of job execution time, kept per priority class, feeding the engine's
// deadline-aware load shedding: at submit, `estimated queue wait +
// estimated exec > ResidencyBudgetMs` means the job cannot meet its SLA
// and is shed on arrival instead of burning queue residency before
// expiring anyway.
//
// Three properties the shedding contract depends on:
//
//   * Cold start is conservative: a class with no samples yet has no
//     estimate (estimateMs returns a negative sentinel) and the engine
//     never sheds on a guess — admission stays open until real service
//     times exist.
//   * Classes are isolated: Batch fan-outs running for seconds must not
//     inflate the estimate used to judge an Interactive submission. Only
//     the blended (all-samples) figure — used for queue wait, where the
//     queue genuinely mixes classes — crosses class lines.
//   * Samples are execution time, not residency: queue wait is modelled
//     separately from current queue depth, so a congested period does not
//     feed back into the exec estimate and lock the engine into shedding
//     after the congestion clears.
//
// All methods are thread-safe (finishing workers record, submitters read).
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_ENGINE_ESTIMATOR_H
#define REGEL_ENGINE_ESTIMATOR_H

#include "engine/WorkerPool.h"
#include "support/Mutex.h"

#include <cstdint>

namespace regel::engine {

class ServiceTimeEstimator {
public:
  /// \p Alpha is the EWMA weight of the newest sample; 0.2 converges to a
  /// step change in service time within ~10 samples while smoothing over
  /// one-off outliers.
  explicit ServiceTimeEstimator(double Alpha = 0.2) : Alpha(Alpha) {}

  /// Records one job's execution time (ms) under class \p P.
  void recordSample(Priority P, double ExecMs);

  /// EWMA execution-time estimate for class \p P in milliseconds, or a
  /// negative value when the class has no samples yet (cold: callers must
  /// not shed on it).
  double estimateMs(Priority P) const;

  /// EWMA over every sample regardless of class (negative when no samples
  /// at all). Used for queue-wait estimation, where the backlog mixes
  /// classes.
  double blendedEstimateMs() const;

  /// Samples recorded so far for class \p P.
  uint64_t samples(Priority P) const;

private:
  struct Cell {
    double Ewma = 0;
    uint64_t N = 0;
  };

  const double Alpha;
  mutable Mutex M;
  Cell ByClass[NumPriorities] REGEL_GUARDED_BY(M);
  Cell Blended REGEL_GUARDED_BY(M);
};

} // namespace regel::engine

#endif // REGEL_ENGINE_ESTIMATOR_H
