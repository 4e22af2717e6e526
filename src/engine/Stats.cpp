//===- engine/Stats.cpp ---------------------------------------------------===//

#include "engine/Stats.h"

#include <cstdio>

using namespace regel::engine;

std::string StatsSnapshot::toJson() const {
  char Buf[4608];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"jobs\":{\"submitted\":%llu,\"completed\":%llu,\"solved\":%llu,"
      "\"rejected\":%llu,\"shed_on_arrival\":%llu,\"expired_in_queue\":%llu,"
      "\"deadline_expired\":%llu,"
      "\"residency_expired\":%llu},"
      "\"tasks\":{\"run\":%llu,\"skipped\":%llu,\"stopped\":%llu,"
      "\"stolen\":%llu,\"run_interactive\":%llu,\"run_batch\":%llu,"
      "\"run_background\":%llu},"
      "\"solutions\":%llu,"
      "\"synth\":{\"pops\":%llu,\"expansions\":%llu,\"pruned\":%llu,"
      "\"checked\":%llu,\"smt_interval_evals\":%llu,\"smt_solves\":%llu,"
      "\"smt_cache_hits\":%llu,\"smt_unsat_short_circuits\":%llu,"
      "\"total_ms\":%.1f},"
      "\"approx_store\":{\"hits\":%llu,\"misses\":%llu,\"size\":%llu,"
      "\"evictions\":%llu},"
      "\"smt_store\":{\"hits\":%llu,\"misses\":%llu,"
      "\"size\":%llu,\"evictions\":%llu},"
      "\"estimator\":{\"interactive_ms\":%.2f,\"batch_ms\":%.2f,"
      "\"background_ms\":%.2f,\"blended_ms\":%.2f,"
      "\"samples_interactive\":%llu,\"samples_batch\":%llu,"
      "\"samples_background\":%llu}}",
      (unsigned long long)JobsSubmitted, (unsigned long long)JobsCompleted,
      (unsigned long long)JobsSolved, (unsigned long long)JobsRejected,
      (unsigned long long)JobsShedOnArrival,
      (unsigned long long)JobsExpiredInQueue,
      (unsigned long long)JobsDeadlineExpired,
      (unsigned long long)JobsResidencyExpired, (unsigned long long)TasksRun,
      (unsigned long long)TasksSkipped, (unsigned long long)TasksStopped,
      (unsigned long long)TasksStolen,
      (unsigned long long)TasksRunInteractive,
      (unsigned long long)TasksRunBatch,
      (unsigned long long)TasksRunBackground,
      (unsigned long long)SolutionsFound,
      (unsigned long long)Pops, (unsigned long long)Expansions,
      (unsigned long long)PrunedInfeasible, (unsigned long long)ConcreteChecked,
      (unsigned long long)SmtIntervalEvals, (unsigned long long)SmtSolves,
      (unsigned long long)SmtCacheHits,
      (unsigned long long)SmtUnsatShortCircuits, SynthMsTotal,
      (unsigned long long)ApproxStoreHits,
      (unsigned long long)ApproxStoreMisses,
      (unsigned long long)ApproxStoreSize,
      (unsigned long long)ApproxStoreEvictions,
      (unsigned long long)SmtStoreHits,
      (unsigned long long)SmtStoreMisses,
      (unsigned long long)SmtStoreSize,
      (unsigned long long)SmtStoreEvictions,
      EstimatorInteractiveMs, EstimatorBatchMs, EstimatorBackgroundMs,
      EstimatorBlendedMs,
      (unsigned long long)EstimatorSamplesInteractive,
      (unsigned long long)EstimatorSamplesBatch,
      (unsigned long long)EstimatorSamplesBackground);
  return Buf;
}
