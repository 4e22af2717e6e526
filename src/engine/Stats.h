//===- engine/Stats.h - Engine-wide counters --------------------*- C++ -*-===//
//
// Part of the Regel reproduction. Aggregates what the engine did across
// all jobs: job/task lifecycle counts, summed synthesis counters, and (via
// Engine::snapshot) the pool, cross-run cache and estimator figures. All
// counters are relaxed atomics — they are monitoring data, not
// synchronization.
//
// Every figure is one row of REGEL_ENGINE_STATS below, which generates
// its StatsSnapshot field, stats JSON key, exposition series (catalogued,
// and checked, in docs/OBSERVABILITY.md) and, for a counted row, its
// EngineStats slot.
//
// Task accounting is a partition: every per-sketch task the engine fans
// out is counted exactly once, either in TasksRun (it executed a search)
// or in TasksSkipped (cancellation/deadline/shutdown ended it before it
// started). TasksStopped is a sub-count of TasksRun — searches that were
// cancelled mid-run — so TasksRun + TasksSkipped equals the number of
// sketches fanned out, always. Job verdicts partition submissions the
// same way: every submission lands in exactly one of JobsRejected,
// JobsShedOnArrival and JobsCompleted; JobsExpiredInQueue is the part of
// JobsResidencyExpired the deadline sweep expired before any task began.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_ENGINE_STATS_H
#define REGEL_ENGINE_STATS_H

#include "synth/Synthesizer.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace regel::engine {

/// How a row is stored, rendered in the stats JSON, and exposed.
enum class StatKind : uint8_t {
  Count,      ///< uint64_t; JSON integer; a counter series
  Level,      ///< uint64_t; JSON integer; a gauge series
  MsTotal,    ///< double ms (summed in integer us); JSON "%.1f"; a counter
              ///< series in integer us
  MsEstimate, ///< double ms, negative = cold; JSON "%.2f"; a gauge series
              ///< in integer us, -1 when cold
};

/// Where a row's value comes from.
enum class StatSource : uint8_t {
  Counted, ///< an EngineStats slot the engine bumps; addSynth sums the
           ///< SynthStats field of the same name into it
  Pulled,  ///< read by Engine::snapshot from the pool, the job queue, the
           ///< caches or the estimator
};

// X(Field, Kind, Source, JSON section, JSON key, series name, series
// labels). The JSON renders the rows that have a key, in table order, each
// inside its section's object ("" = top level); rows with a null series
// name are not exposed. Every SynthStats counter (REGEL_SYNTH_COUNTERS)
// needs a Counted row here, or addSynth does not compile.
// clang-format off
#define REGEL_ENGINE_STATS(X)                                                                                                                                     \
  X(JobsSubmitted,               Count,      Counted, "jobs",         "submitted",                "regel_jobs_submitted_total",            "")                    \
  X(JobsCompleted,               Count,      Counted, "jobs",         "completed",                "regel_jobs_completed_total",            "")                    \
  X(JobsSolved,                  Count,      Counted, "jobs",         "solved",                   "regel_jobs_solved_total",               "")                    \
  X(JobsRejected,                Count,      Counted, "jobs",         "rejected",                 "regel_jobs_rejected_total",             "")                    \
  X(JobsShedOnArrival,           Count,      Counted, "jobs",         "shed_on_arrival",          "regel_jobs_shed_on_arrival_total",      "")                    \
  X(JobsExpiredInQueue,          Count,      Counted, "jobs",         "expired_in_queue",         "regel_jobs_expired_in_queue_total",     "")                    \
  X(JobsDeadlineExpired,         Count,      Counted, "jobs",         "deadline_expired",         "regel_jobs_deadline_expired_total",     "")                    \
  X(JobsResidencyExpired,        Count,      Counted, "jobs",         "residency_expired",        "regel_jobs_residency_expired_total",    "")                    \
  X(TasksRun,                    Count,      Counted, "tasks",        "run",                      "regel_tasks_run_total",                 "")                    \
  X(TasksSkipped,                Count,      Counted, "tasks",        "skipped",                  "regel_tasks_skipped_total",             "")                    \
  X(TasksStopped,                Count,      Counted, "tasks",        "stopped",                  "regel_tasks_stopped_total",             "")                    \
  X(TasksStolen,                 Count,      Pulled,  "tasks",        "stolen",                   "regel_tasks_stolen_total",              "")                    \
  X(TasksRunInteractive,         Count,      Pulled,  "tasks",        "run_interactive",          "regel_pool_tasks_run_total",            "pri=\"interactive\"") \
  X(TasksRunBatch,               Count,      Pulled,  "tasks",        "run_batch",                "regel_pool_tasks_run_total",            "pri=\"batch\"")       \
  X(TasksRunBackground,          Count,      Pulled,  "tasks",        "run_background",           "regel_pool_tasks_run_total",            "pri=\"background\"")  \
  X(SolutionsFound,              Count,      Counted, "",             "solutions",                "regel_solutions_found_total",           "")                    \
  X(Pops,                        Count,      Counted, "synth",        "pops",                     "regel_synth_pops_total",                "")                    \
  X(Expansions,                  Count,      Counted, "synth",        "expansions",               "regel_synth_expansions_total",          "")                    \
  X(PrunedInfeasible,            Count,      Counted, "synth",        "pruned",                   "regel_synth_pruned_infeasible_total",   "")                    \
  X(ConcreteChecked,             Count,      Counted, "synth",        "checked",                  "regel_synth_concrete_checked_total",    "")                    \
  X(SmtIntervalEvals,            Count,      Counted, "synth",        "smt_interval_evals",       "regel_smt_interval_evals_total",        "")                    \
  X(SmtSolves,                   Count,      Counted, "synth",        "smt_solves",               "regel_smt_solves_total",                "")                    \
  X(SmtCacheHits,                Count,      Counted, "synth",        "smt_cache_hits",           nullptr,                                 "")                    \
  X(SmtUnsatShortCircuits,       Count,      Counted, "synth",        "smt_unsat_short_circuits", "regel_smt_unsat_short_circuits_total",  "")                    \
  X(SynthMsTotal,                MsTotal,    Counted, "synth",        "total_ms",                 "regel_synth_time_us_total",             "")                    \
  X(ApproxStoreHits,             Count,      Pulled,  "approx_store", "hits",                     "regel_approx_store_hits_total",         "")                    \
  X(ApproxStoreMisses,           Count,      Pulled,  "approx_store", "misses",                   "regel_approx_store_misses_total",       "")                    \
  X(ApproxStoreSize,             Level,      Pulled,  "approx_store", "size",                     "regel_approx_store_size_entries",       "")                    \
  X(ApproxStoreEvictions,        Count,      Pulled,  "approx_store", "evictions",                "regel_approx_store_evictions_total",    "")                    \
  X(SmtStoreHits,                Count,      Pulled,  "smt_store",    "hits",                     "regel_smt_cache_hits_total",            "")                    \
  X(SmtStoreMisses,              Count,      Pulled,  "smt_store",    "misses",                   "regel_smt_cache_misses_total",          "")                    \
  X(SmtStoreSize,                Level,      Pulled,  "smt_store",    "size",                     "regel_smt_cache_size_entries",          "")                    \
  X(SmtStoreEvictions,           Count,      Pulled,  "smt_store",    "evictions",                "regel_smt_cache_evictions_total",       "")                    \
  X(EstimatorInteractiveMs,      MsEstimate, Pulled,  "estimator",    "interactive_ms",           "regel_estimator_est_us",                "pri=\"interactive\"") \
  X(EstimatorBatchMs,            MsEstimate, Pulled,  "estimator",    "batch_ms",                 "regel_estimator_est_us",                "pri=\"batch\"")       \
  X(EstimatorBackgroundMs,       MsEstimate, Pulled,  "estimator",    "background_ms",            "regel_estimator_est_us",                "pri=\"background\"")  \
  X(EstimatorBlendedMs,          MsEstimate, Pulled,  "estimator",    "blended_ms",               "regel_estimator_blended_est_us",        "")                    \
  X(EstimatorSamplesInteractive, Count,      Pulled,  "estimator",    "samples_interactive",      "regel_estimator_samples_total",         "pri=\"interactive\"") \
  X(EstimatorSamplesBatch,       Count,      Pulled,  "estimator",    "samples_batch",            "regel_estimator_samples_total",         "pri=\"batch\"")       \
  X(EstimatorSamplesBackground,  Count,      Pulled,  "estimator",    "samples_background",       "regel_estimator_samples_total",         "pri=\"background\"")  \
  X(QueueDepth,                  Level,      Pulled,  nullptr,        nullptr,                    "regel_queue_depth_jobs",                "")                    \
  X(WorkerThreads,               Level,      Pulled,  nullptr,        nullptr,                    "regel_worker_threads",                  "")
// clang-format on

/// Storage type and initial value of a StatsSnapshot field, by kind.
template <StatKind K> struct StatField {
  using Type = std::conditional_t<K == StatKind::MsTotal ||
                                      K == StatKind::MsEstimate,
                                  double, uint64_t>;
  static constexpr Type Init = K == StatKind::MsEstimate ? -1 : 0; ///< -1: cold
};

/// A point-in-time copy of every engine counter (plain values, printable).
struct StatsSnapshot {
#define REGEL_STAT_FIELD(Field, Kind, ...)                                     \
  StatField<StatKind::Kind>::Type Field = StatField<StatKind::Kind>::Init;
  REGEL_ENGINE_STATS(REGEL_STAT_FIELD)
#undef REGEL_STAT_FIELD

  /// Renders the snapshot as a single JSON object.
  std::string toJson() const;
};

/// The Counted rows, in table order: Stat::X is the EngineStats slot of
/// field X. Pulled rows have no enumerator, so the engine cannot bump them.
#define REGEL_STAT_ENUM_Counted(Field) Field,
#define REGEL_STAT_ENUM_Pulled(Field)
#define REGEL_STAT_ENUM(Field, Kind, Src, ...) REGEL_STAT_ENUM_##Src(Field)
enum class Stat : size_t { REGEL_ENGINE_STATS(REGEL_STAT_ENUM) NumCounted };
#undef REGEL_STAT_ENUM
#undef REGEL_STAT_ENUM_Pulled
#undef REGEL_STAT_ENUM_Counted

struct StatRow {
  StatKind Kind;
  StatSource Source;
  const char *Section; ///< JSON object holding the key ("" = top level)
  const char *Key;     ///< JSON key; null = not in the stats JSON
  const char *Name;    ///< exposition series; null = not exposed
  const char *Labels;  ///< the series' labels ("" = none)
  uint64_t StatsSnapshot::*U64 = nullptr; ///< the field of a Count/Level row
  double StatsSnapshot::*Ms = nullptr;    ///< the field of an Ms* row
};

/// Sets the member pointer that matches the field's type.
constexpr StatRow statRow(StatRow R, uint64_t StatsSnapshot::*F) {
  R.U64 = F;
  return R;
}
constexpr StatRow statRow(StatRow R, double StatsSnapshot::*F) {
  R.Ms = F;
  return R;
}

/// The table as data, in table order.
inline constexpr StatRow StatRows[] = {
#define REGEL_STAT_ROW(Field, Kind, Src, Section, Key, Name, Labels)           \
  statRow({StatKind::Kind, StatSource::Src, Section, Key, Name, Labels},       \
          &StatsSnapshot::Field),
    REGEL_ENGINE_STATS(REGEL_STAT_ROW)
#undef REGEL_STAT_ROW
};

/// Thread-safe accumulator behind StatsSnapshot: one relaxed atomic per
/// Counted row.
class EngineStats {
public:
  void add(Stat S, uint64_t N = 1) {
    Slots[static_cast<size_t>(S)].fetch_add(N, std::memory_order_relaxed);
  }

  void jobCompleted(bool Solved, bool DeadlineExpired,
                    bool ResidencyExpired) {
    add(Stat::JobsCompleted);
    if (Solved)
      add(Stat::JobsSolved);
    if (DeadlineExpired)
      add(Stat::JobsDeadlineExpired);
    if (ResidencyExpired)
      add(Stat::JobsResidencyExpired);
  }

  void addSynth(const SynthStats &S) {
#define REGEL_STAT_ADD_SYNTH(Field) add(Stat::Field, S.Field);
    REGEL_SYNTH_COUNTERS(REGEL_STAT_ADD_SYNTH)
#undef REGEL_STAT_ADD_SYNTH
    add(Stat::SynthMsTotal, static_cast<uint64_t>(S.TimeMs * 1000.0));
  }

  /// Copies the Counted rows into \p Out (the Pulled rows are filled by
  /// the engine, which owns their sources).
  void fill(StatsSnapshot &Out) const {
    size_t Slot = 0; // Stat numbers the Counted rows in table order
    for (const StatRow &Row : StatRows) {
      if (Row.Source != StatSource::Counted)
        continue;
      const uint64_t V = Slots[Slot++].load(std::memory_order_relaxed);
      if (Row.Ms)
        Out.*Row.Ms = static_cast<double>(V) / 1000.0; // summed in us
      else
        Out.*Row.U64 = V;
    }
  }

private:
  std::array<std::atomic<uint64_t>,
             static_cast<size_t>(Stat::NumCounted)>
      Slots{};
};

} // namespace regel::engine

#endif // REGEL_ENGINE_STATS_H
