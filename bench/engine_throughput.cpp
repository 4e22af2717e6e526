//===- bench/engine_throughput.cpp - Concurrent engine throughput ---------===//
//
// Pushes the whole DeepRegex-style and StackOverflow-style corpora through
// the concurrent synthesis engine as one big batch of jobs and reports
// serving metrics (jobs/sec, p50/p95 latency) as JSON in BENCH_engine.json.
//
// Two passes run over the same corpus — single worker, then multi worker —
// sharing the cross-run caches, exactly like a persistent serving process
// that stays warm across requests. The multi-worker pass therefore shows
// the combined effect of the two engine features this bench exists to
// measure: parallel sketch tasks and cross-run cache reuse.
//
// A final fairness section measures what priority scheduling buys: a
// saturating Batch-class fan-out churns while Interactive-class queries
// arrive at a fixed cadence, once on a FIFO pool and once on the weighted
// priority pool, and the interactive p50/p95 of both modes land in the
// `fairness` rows. Every pass is driven by THIS single thread: it submits
// the whole batch, then waits on the handles — no helper thread is parked
// per job.
//
// Environment knobs:
//   REGEL_BENCH_LIMIT        max benchmarks per dataset (default 25, 0 = all)
//   REGEL_BENCH_BUDGET_MS    per-job deadline (default 1500)
//   REGEL_ENGINE_THREADS     workers in the multi-threaded pass (default 2)
//   REGEL_FAIRNESS_BATCH     batch jobs in the fairness passes
//                            (default 100, 0 skips the section)
//   REGEL_FAIRNESS_BATCH_MS  per-batch-job budget (default 150)
//   REGEL_FAIRNESS_INTERACTIVE  interactive probes per mode (default 20)
//   REGEL_FAIRNESS_INTERVAL_MS  probe cadence (default 100)
//   REGEL_SHED_JOBS          overload-section jobs (default 200, 0 skips)
//   REGEL_SHED_EXEC_MS       per-job execution cost (default 80)
//   REGEL_SHED_SLA_MS        per-job residency SLA (default 250)
//   REGEL_SHED_INTERVAL_MS   arrival pacing (default 2)
//   REGEL_OBS_JOBS           obs-overhead-section jobs (default 2000,
//                            0 skips)
//   REGEL_SMT_CACHE          0 skips the smt_cache_on_vs_off section
//                            (default 1)
//
// The smt_cache_on_vs_off section repeats the corpus cold+warm with the
// SMT verdict store detached (EngineConfig::SmtMemo=false) and compares
// against the main passes (store attached): warm-pass solver searches
// actually executed, and the warm check hit rate, with the cache on vs
// off — what cross-run verdict memoization buys a persistent server.
//
// A final overload section (`shedding_overload` in the JSON) runs the
// same SLA-overload twice — deadline-aware shedding off ("lazy", the
// expire-at-task-start baseline) and on ("shed") — and reports how much
// queue residency doomed jobs burned and how fast they learned their
// verdict under each policy.
//
//===----------------------------------------------------------------------===//

#include "common/BenchUtil.h"

#include "data/DeepRegexSet.h"
#include "engine/Engine.h"
#include "obs/Metrics.h"
#include "regex/Parser.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace regel;
using namespace regel::bench;

namespace {

/// The per-benchmark sketch list: the gold (annotated) sketch, the paper's
/// root-operator hole-ification, and the pure-PBE fallback, deduplicated.
std::vector<SketchPtr> sketchesFor(const data::Benchmark &B) {
  std::vector<SketchPtr> Sketches;
  auto addUnique = [&Sketches](const SketchPtr &S) {
    if (!S)
      return;
    for (const SketchPtr &Existing : Sketches)
      if (sketchEquals(Existing, S))
        return;
    Sketches.push_back(S);
  };
  addUnique(B.GoldSketch);
  addUnique(data::rootHoleSketch(B.GroundTruth));
  addUnique(Sketch::unconstrained());
  return Sketches;
}

/// Percentile through the same log-linear histogram the serving metrics
/// registry uses (obs::Histogram, <=25% relative error per bucket), not a
/// second hand-rolled sort-and-index: the bench reports exactly the
/// figures a scraped /metrics exposition would show for this workload.
double percentile(const std::vector<double> &LatenciesMs, double P) {
  obs::Histogram H;
  for (double Ms : LatenciesMs)
    H.recordMs(Ms);
  return static_cast<double>(H.snapshot().percentileUs(P)) / 1000.0;
}

/// One fairness mode: interactive probes at a fixed cadence against a
/// saturating batch fan-out, on a FIFO or priority-scheduled pool.
struct FairnessReport {
  bool Fifo = false;
  size_t BatchJobs = 0;
  size_t InteractiveJobs = 0;
  double InteractiveP50Ms = 0; ///< submit -> completion of the probes
  double InteractiveP95Ms = 0;
  double InteractiveMaxMs = 0;
  size_t BatchCompleted = 0; ///< batch jobs finished before cancelAll
};

FairnessReport runFairnessMode(bool Fifo, unsigned Threads, size_t BatchJobs,
                               int64_t BatchBudgetMs, size_t InterJobs,
                               int64_t IntervalMs) {
  engine::EngineConfig EC;
  EC.Threads = Threads;
  EC.FifoScheduling = Fifo;
  engine::Engine Eng(EC);

  // The batch load: unsolvable (contradictory examples), so every job
  // churns its full budget — a worst-case fan-out hogging the pool.
  Examples Contradiction;
  Contradiction.Pos = {"ab"};
  Contradiction.Neg = {"ab"};
  std::vector<engine::JobPtr> Batch;
  Batch.reserve(BatchJobs);
  for (size_t I = 0; I < BatchJobs; ++I) {
    engine::JobRequest R;
    R.Sketches = {Sketch::unconstrained()};
    R.E = Contradiction;
    R.BudgetMs = BatchBudgetMs;
    R.Pri = engine::Priority::Batch;
    Batch.push_back(Eng.submit(std::move(R)));
  }

  // Interactive probes: a concrete sketch solves in ~a millisecond of
  // search, so the measured latency is queueing — exactly what priority
  // picking is supposed to bound. Latencies land through continuations
  // and this thread blocks once, on a latch the last one releases (a
  // wait() per probe would pace the probes by their own latency).
  RegexPtr Probe = parseRegex("Concat(<cap>,Repeat(<num>,2))");
  Examples ProbeE;
  ProbeE.Pos = {"A12", "Z99"};
  ProbeE.Neg = {"12", "a12"};
  std::mutex M;
  std::condition_variable CV;
  std::vector<double> Latencies;
  for (size_t I = 0; I < InterJobs; ++I) {
    engine::JobRequest R;
    R.Sketches = {Sketch::concrete(Probe)};
    R.E = ProbeE;
    R.BudgetMs = 10000;
    R.Pri = engine::Priority::Interactive;
    Eng.submit(std::move(R))->onComplete(
        [&](const engine::JobResult &JR) {
          std::lock_guard<std::mutex> Guard(M);
          Latencies.push_back(JR.TotalMs);
          if (Latencies.size() == InterJobs)
            CV.notify_all();
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
  {
    std::unique_lock<std::mutex> Guard(M);
    CV.wait(Guard, [&] { return Latencies.size() == InterJobs; });
  }

  FairnessReport Rep;
  Rep.Fifo = Fifo;
  Rep.BatchJobs = BatchJobs;
  Rep.InteractiveJobs = InterJobs;
  for (const engine::JobPtr &J : Batch)
    if (J->done())
      ++Rep.BatchCompleted;
  {
    std::lock_guard<std::mutex> Guard(M);
    Rep.InteractiveP50Ms = percentile(Latencies, 0.50);
    Rep.InteractiveP95Ms = percentile(Latencies, 0.95);
    Rep.InteractiveMaxMs =
        Latencies.empty()
            ? 0
            : *std::max_element(Latencies.begin(), Latencies.end());
  }
  // The probes are measured; stop burning CPU on the leftover batch churn.
  Eng.cancelAll();
  for (const engine::JobPtr &J : Batch)
    J->wait();
  return Rep;
}

/// One overload mode: a burst of SLA-carrying jobs far beyond capacity,
/// with deadline-aware shedding on (shed on arrival + eager queue expiry)
/// or off (the old lazy expire-at-task-start behaviour).
struct OverloadReport {
  bool Shedding = false;
  size_t Jobs = 0;
  size_t Solved = 0;
  uint64_t ShedOnArrival = 0;
  uint64_t ExpiredInQueue = 0;
  uint64_t ResidencyExpired = 0;
  double FailedVerdictP50Ms = 0; ///< submit -> verdict for non-solved jobs
  double FailedVerdictP95Ms = 0;
  double FailedQueueMsAvg = 0;   ///< queue residency burned by failed jobs
  double SolvedP95Ms = 0;
  double WallMs = 0;
};

OverloadReport runOverloadMode(bool Shedding, unsigned Threads, size_t Jobs,
                               int64_t ExecMs, int64_t SlaMs,
                               int64_t IntervalMs) {
  // Paced arrivals (not one burst): the shedding estimator learns from
  // completions, so offered load must overlap with service for the
  // comparison to show what shedding does in steady-state overload.
  engine::EngineConfig EC;
  EC.Threads = Threads;
  EC.DeadlineShedding = Shedding;
  engine::Engine Eng(EC);

  // Unsolvable work with a fixed per-job execution cost (the budget), so
  // service time is predictable and the SLA is the binding constraint.
  Examples Contradiction;
  Contradiction.Pos = {"ab"};
  Contradiction.Neg = {"ab"};

  Stopwatch Wall;
  std::vector<engine::JobPtr> Handles;
  Handles.reserve(Jobs);
  for (size_t I = 0; I < Jobs; ++I) {
    engine::JobRequest R;
    R.Sketches = {Sketch::unconstrained()};
    R.E = Contradiction;
    R.BudgetMs = ExecMs;
    R.ResidencyBudgetMs = SlaMs;
    Handles.push_back(Eng.submit(std::move(R)));
    if (IntervalMs > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
  // Each wait is timed to the earliest queued SLA and followed by a
  // sweep, so a queued job expires the moment its SLA lapses even while
  // every worker is busy (the timer half of eager expiry).
  for (const engine::JobPtr &J : Handles)
    for (;;) {
      Eng.sweepExpiredQueued();
      const int64_t LeftUs = std::min<int64_t>(
          Eng.nextResidencyDeadlineUs() - Eng.clock()->nowUs(), 250000);
      if (J->waitFor(std::max<int64_t>((LeftUs + 999) / 1000, 1)))
        break;
    }

  OverloadReport Rep;
  Rep.Shedding = Shedding;
  Rep.Jobs = Jobs;
  Rep.WallMs = Wall.elapsedMs();
  std::vector<double> FailedVerdict, SolvedTotal;
  double FailedQueueSum = 0;
  size_t Failed = 0;
  for (const engine::JobPtr &J : Handles) {
    const engine::JobResult R = J->wait();
    if (R.solved()) {
      ++Rep.Solved;
      SolvedTotal.push_back(R.TotalMs);
      continue;
    }
    ++Failed;
    FailedVerdict.push_back(R.TotalMs);
    FailedQueueSum += R.TotalMs - R.ExecMs;
  }
  engine::StatsSnapshot S = Eng.snapshot();
  Rep.ShedOnArrival = S.JobsShedOnArrival;
  Rep.ExpiredInQueue = S.JobsExpiredInQueue;
  Rep.ResidencyExpired = S.JobsResidencyExpired;
  Rep.FailedVerdictP50Ms = percentile(FailedVerdict, 0.50);
  Rep.FailedVerdictP95Ms = percentile(FailedVerdict, 0.95);
  Rep.FailedQueueMsAvg = Failed ? FailedQueueSum / double(Failed) : 0;
  Rep.SolvedP95Ms = percentile(SolvedTotal, 0.95);
  return Rep;
}

/// Jobs/sec over a stream of trivial concrete-sketch jobs with the
/// observability layer (span tracing + registry histograms) on or off.
/// Trivial jobs put instrumentation at its maximum relative cost — real
/// synthesis work amortizes it much further — so this is the worst-case
/// overhead figure.
double runObsMode(bool Observability, unsigned Threads, size_t Jobs) {
  engine::EngineConfig EC;
  EC.Threads = Threads;
  EC.Observability = Observability;
  engine::Engine Eng(EC);

  RegexPtr Probe = parseRegex("Concat(<cap>,Repeat(<num>,2))");
  Examples E;
  E.Pos = {"A12", "Z99"};
  E.Neg = {"12", "a12"};

  Stopwatch Wall;
  std::vector<engine::JobPtr> Handles;
  Handles.reserve(Jobs);
  for (size_t I = 0; I < Jobs; ++I) {
    engine::JobRequest R;
    R.Sketches = {Sketch::concrete(Probe)};
    R.E = E;
    R.BudgetMs = 10000;
    Handles.push_back(Eng.submit(std::move(R)));
  }
  for (const engine::JobPtr &J : Handles)
    J->wait();
  const double WallMs = Wall.elapsedMs();
  return WallMs > 0 ? static_cast<double>(Jobs) * 1000.0 / WallMs : 0;
}

struct PassReport {
  unsigned Threads = 0;
  size_t Jobs = 0;
  size_t Solved = 0;
  double WallMs = 0;
  double JobsPerSec = 0;
  double P50Ms = 0;     ///< submit -> done (includes queue wait)
  double P90Ms = 0;
  double P95Ms = 0;
  double P99Ms = 0;
  double ExecP50Ms = 0; ///< first task start -> done
  double ExecP95Ms = 0;
  /// Share of this pass's satisfiability checks answered by the verdict
  /// store (pass-local: each pass gets a fresh engine, so the engine-
  /// summed SmtCacheHits/SmtSolves are already per-pass deltas).
  double SmtCheckHitRate = 0;
  engine::StatsSnapshot Stats;
  /// The pass engine's full Prometheus-style exposition, captured before
  /// the engine dies (one pass's text is written out as
  /// BENCH_metrics.prom for the CI artifact).
  std::string MetricsText;
};

PassReport runPass(unsigned Threads,
                   const std::shared_ptr<engine::SharedCaches> &Caches,
                   const std::vector<data::Benchmark> &Corpus,
                   int64_t BudgetMs, bool SmtMemo = true) {
  engine::EngineConfig EC;
  EC.Threads = Threads;
  EC.Caches = Caches;
  EC.SmtMemo = SmtMemo;
  engine::Engine Eng(EC);

  std::vector<engine::JobRequest> Requests;
  Requests.reserve(Corpus.size());
  for (const data::Benchmark &B : Corpus) {
    engine::JobRequest R;
    R.Sketches = sketchesFor(B);
    R.E = B.Initial;
    R.TopK = 1;
    R.BudgetMs = BudgetMs;
    R.Tag = B.Id;
    Requests.push_back(std::move(R));
  }

  Stopwatch Wall;
  // Submit the whole corpus, then wait on each handle in turn.
  const std::vector<engine::JobResult> Results =
      Eng.runBatch(std::move(Requests));
  PassReport Rep;
  Rep.Threads = Threads;
  Rep.Jobs = Results.size();
  Rep.WallMs = Wall.elapsedMs();
  std::vector<double> Latencies, ExecLatencies;
  Latencies.reserve(Results.size());
  ExecLatencies.reserve(Results.size());
  for (const engine::JobResult &R : Results) {
    Latencies.push_back(R.TotalMs);
    ExecLatencies.push_back(R.ExecMs);
    if (R.solved())
      ++Rep.Solved;
  }
  Rep.JobsPerSec =
      Rep.WallMs > 0 ? static_cast<double>(Rep.Jobs) * 1000.0 / Rep.WallMs : 0;
  Rep.P50Ms = percentile(Latencies, 0.50);
  Rep.P90Ms = percentile(Latencies, 0.90);
  Rep.P95Ms = percentile(Latencies, 0.95);
  Rep.P99Ms = percentile(Latencies, 0.99);
  Rep.ExecP50Ms = percentile(ExecLatencies, 0.50);
  Rep.ExecP95Ms = percentile(ExecLatencies, 0.95);
  Rep.Stats = Eng.snapshot();
  Rep.MetricsText = Eng.metricsText();
  // Engine stats are per-engine and each pass gets a fresh engine, so the
  // snapshot's synth counters are already pass-local.
  const uint64_t SmtChecks = Rep.Stats.SmtCacheHits + Rep.Stats.SmtSolves;
  Rep.SmtCheckHitRate = SmtChecks ? static_cast<double>(Rep.Stats.SmtCacheHits) /
                                        static_cast<double>(SmtChecks)
                                  : 0.0;
  return Rep;
}

void appendPassJson(std::string &Out, const PassReport &R) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "    {\"threads\":%u,\"jobs\":%zu,\"solved\":%zu,"
                "\"wall_ms\":%.1f,\"jobs_per_sec\":%.3f,"
                "\"p50_ms\":%.1f,\"p90_ms\":%.1f,\"p95_ms\":%.1f,"
                "\"p99_ms\":%.1f,"
                "\"exec_p50_ms\":%.1f,\"exec_p95_ms\":%.1f,"
                "\"smt_check_hit_rate\":%.3f,\n"
                "     \"engine\":",
                R.Threads, R.Jobs, R.Solved, R.WallMs, R.JobsPerSec, R.P50Ms,
                R.P90Ms, R.P95Ms, R.P99Ms, R.ExecP50Ms, R.ExecP95Ms,
                R.SmtCheckHitRate);
  Out += Buf;
  Out += R.Stats.toJson();
  Out += "}";
}

} // namespace

int main() {
  const unsigned Limit =
      static_cast<unsigned>(envInt("REGEL_BENCH_LIMIT", 25));
  const int64_t BudgetMs = envInt("REGEL_BENCH_BUDGET_MS", 1500);
  const unsigned Threads = std::max<unsigned>(
      2, static_cast<unsigned>(envInt("REGEL_ENGINE_THREADS", 2)));
  std::printf("loading corpora...\n");
  std::vector<data::Benchmark> Corpus = limited(data::deepRegexSet(), Limit);
  const size_t DeepCount = Corpus.size();
  std::vector<data::Benchmark> So = limited(data::stackOverflowSet(), Limit);
  const size_t SoCount = So.size();
  Corpus.insert(Corpus.end(), So.begin(), So.end());
  std::printf("corpus: %zu deepregex + %zu stackoverflow = %zu jobs/pass\n",
              DeepCount, SoCount, Corpus.size());

  // Both passes share the cross-run caches (a persistent server is always
  // warm); the single-worker pass runs first and fills them.
  auto Caches = std::make_shared<engine::SharedCaches>(16);

  std::printf("pass 1: 1 worker (cold caches)...\n");
  PassReport Single = runPass(1, Caches, Corpus, BudgetMs);
  std::printf("  %.2f jobs/sec, p50 %.0f ms, p95 %.0f ms, %zu/%zu solved\n",
              Single.JobsPerSec, Single.P50Ms, Single.P95Ms, Single.Solved,
              Single.Jobs);

  std::printf("pass 2: %u workers (warm caches)...\n", Threads);
  PassReport Multi = runPass(Threads, Caches, Corpus, BudgetMs);
  std::printf("  %.2f jobs/sec, p50 %.0f ms, p95 %.0f ms, %zu/%zu solved\n",
              Multi.JobsPerSec, Multi.P50Ms, Multi.P95Ms, Multi.Solved,
              Multi.Jobs);

  std::string Json = "{\n  \"bench\": \"engine_throughput\",\n";
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "  \"corpus\": {\"deepregex\": %zu, \"stackoverflow\": %zu},\n"
                "  \"budget_ms\": %lld,\n  \"passes\": [\n",
                DeepCount, SoCount, static_cast<long long>(BudgetMs));
  Json += Buf;
  appendPassJson(Json, Single);
  Json += ",\n";
  appendPassJson(Json, Multi);
  Json += "\n  ],\n";
  std::snprintf(Buf, sizeof(Buf),
                "  \"speedup_multi_over_single\": %.3f",
                Single.JobsPerSec > 0 ? Multi.JobsPerSec / Single.JobsPerSec
                                      : 0.0);
  Json += Buf;

  // SMT verdict cache: the same corpus cold+warm with the store DETACHED.
  // The main passes (store attached, shared caches) are the "on" side;
  // the comparison isolates what cross-run verdict memoization buys: how
  // many bounded-DFS searches the warm pass actually runs, and the share
  // of its satisfiability checks answered from cache.
  const bool RunSmtCache = envInt("REGEL_SMT_CACHE", 1) != 0;
  if (RunSmtCache) {
    std::printf("smt cache off: corpus cold+warm with the verdict store "
                "detached...\n");
    auto OffCaches = std::make_shared<engine::SharedCaches>(16);
    PassReport OffCold =
        runPass(1, OffCaches, Corpus, BudgetMs, /*SmtMemo=*/false);
    PassReport OffWarm =
        runPass(Threads, OffCaches, Corpus, BudgetMs, /*SmtMemo=*/false);
    const double WarmSolveRatio =
        OffWarm.Stats.SmtSolves > 0
            ? static_cast<double>(Multi.Stats.SmtSolves) /
                  static_cast<double>(OffWarm.Stats.SmtSolves)
            : 0.0;
    std::printf("  warm pass solver searches: %llu with cache on vs %llu "
                "off (ratio %.3f); warm check hit rate %.3f on vs %.3f "
                "off\n",
                (unsigned long long)Multi.Stats.SmtSolves,
                (unsigned long long)OffWarm.Stats.SmtSolves, WarmSolveRatio,
                Multi.SmtCheckHitRate, OffWarm.SmtCheckHitRate);
    if (Multi.SmtCheckHitRate < 0.5)
      std::printf("WARNING: warm-pass smt cache hit rate under 0.5\n");

    char SmtBuf[1024];
    std::snprintf(SmtBuf, sizeof(SmtBuf),
                  ",\n  \"smt_cache_on_vs_off\": {\n"
                  "    \"warm_smt_solves_on\": %llu,\n"
                  "    \"warm_smt_solves_off\": %llu,\n"
                  "    \"warm_solve_ratio_on_over_off\": %.3f,\n"
                  "    \"warm_smt_check_hit_rate_on\": %.3f,\n"
                  "    \"warm_smt_check_hit_rate_off\": %.3f,\n"
                  "    \"cold_smt_solves_on\": %llu,\n"
                  "    \"cold_smt_solves_off\": %llu,\n"
                  "    \"smt_store_size\": %llu,\n"
                  "    \"smt_store_evictions\": %llu,\n"
                  "    \"passes_off\": [\n",
                  (unsigned long long)Multi.Stats.SmtSolves,
                  (unsigned long long)OffWarm.Stats.SmtSolves, WarmSolveRatio,
                  Multi.SmtCheckHitRate, OffWarm.SmtCheckHitRate,
                  (unsigned long long)Single.Stats.SmtSolves,
                  (unsigned long long)OffCold.Stats.SmtSolves,
                  (unsigned long long)Multi.Stats.SmtStoreSize,
                  (unsigned long long)Multi.Stats.SmtStoreEvictions);
    Json += SmtBuf;
    appendPassJson(Json, OffCold);
    Json += ",\n";
    appendPassJson(Json, OffWarm);
    Json += "\n    ]\n  }";
  }

  // Fairness: interactive probes against a saturating batch fan-out, FIFO
  // vs priority scheduling. The interesting figure is interactive p95 —
  // FIFO queues the probe behind the whole batch backlog, the weighted
  // priority pool runs it at the next pop.
  const size_t FairBatch =
      static_cast<size_t>(envInt("REGEL_FAIRNESS_BATCH", 100));
  const int64_t FairBatchMs = envInt("REGEL_FAIRNESS_BATCH_MS", 150);
  const size_t FairInter =
      static_cast<size_t>(envInt("REGEL_FAIRNESS_INTERACTIVE", 20));
  const int64_t FairIntervalMs = envInt("REGEL_FAIRNESS_INTERVAL_MS", 100);
  if (FairBatch > 0 && FairInter > 0) {
    std::printf("fairness: %zu batch jobs (%lld ms each) vs %zu interactive "
                "probes every %lld ms...\n",
                FairBatch, (long long)FairBatchMs, FairInter,
                (long long)FairIntervalMs);
    FairnessReport Fifo = runFairnessMode(/*Fifo=*/true, Threads, FairBatch,
                                          FairBatchMs, FairInter,
                                          FairIntervalMs);
    std::printf("  fifo:     interactive p50 %.0f ms, p95 %.0f ms, max %.0f "
                "ms\n",
                Fifo.InteractiveP50Ms, Fifo.InteractiveP95Ms,
                Fifo.InteractiveMaxMs);
    FairnessReport Prio = runFairnessMode(/*Fifo=*/false, Threads, FairBatch,
                                          FairBatchMs, FairInter,
                                          FairIntervalMs);
    std::printf("  priority: interactive p50 %.0f ms, p95 %.0f ms, max %.0f "
                "ms\n",
                Prio.InteractiveP50Ms, Prio.InteractiveP95Ms,
                Prio.InteractiveMaxMs);
    const double Improvement = Prio.InteractiveP95Ms > 0
                                   ? Fifo.InteractiveP95Ms /
                                         Prio.InteractiveP95Ms
                                   : 0.0;
    std::printf("  p95 improvement: %.1fx\n", Improvement);
    if (Improvement < 3.0)
      std::printf("WARNING: priority scheduling under 3x p95 improvement\n");

    auto AppendMode = [&Json](const FairnessReport &R) {
      char B[512];
      std::snprintf(B, sizeof(B),
                    "    {\"mode\":\"%s\",\"interactive_p50_ms\":%.1f,"
                    "\"interactive_p95_ms\":%.1f,"
                    "\"interactive_max_ms\":%.1f,"
                    "\"batch_completed\":%zu}",
                    R.Fifo ? "fifo" : "priority", R.InteractiveP50Ms,
                    R.InteractiveP95Ms, R.InteractiveMaxMs,
                    R.BatchCompleted);
      Json += B;
    };
    std::snprintf(Buf, sizeof(Buf),
                  ",\n  \"fairness\": {\n"
                  "    \"batch_jobs\": %zu,\n"
                  "    \"batch_budget_ms\": %lld,\n"
                  "    \"interactive_jobs\": %zu,\n"
                  "    \"interval_ms\": %lld,\n"
                  "    \"threads\": %u,\n"
                  "    \"modes\": [\n",
                  FairBatch, (long long)FairBatchMs, FairInter,
                  (long long)FairIntervalMs, Threads);
    Json += Buf;
    AppendMode(Fifo);
    Json += ",\n";
    AppendMode(Prio);
    std::snprintf(Buf, sizeof(Buf),
                  "\n    ],\n    \"interactive_p95_improvement\": %.2f\n  }",
                  Improvement);
    Json += Buf;
  }
  // Overload: shed-vs-lazy-expiry. Arrivals far beyond capacity, every
  // job carrying a residency SLA; "lazy" is the pre-shedding engine
  // (expiry only at task start), "shed" adds reject-on-arrival plus the
  // eager deadline sweep. The interesting figures: queue residency burned
  // by jobs that were never going to make it, and how fast a doomed
  // client learns its verdict.
  const size_t ShedJobs = static_cast<size_t>(envInt("REGEL_SHED_JOBS", 200));
  const int64_t ShedExecMs = envInt("REGEL_SHED_EXEC_MS", 80);
  const int64_t ShedSlaMs = envInt("REGEL_SHED_SLA_MS", 250);
  const int64_t ShedIntervalMs = envInt("REGEL_SHED_INTERVAL_MS", 2);
  if (ShedJobs > 0) {
    std::printf("overload: %zu jobs (%lld ms exec, %lld ms sla, every "
                "%lld ms) on %u workers...\n",
                ShedJobs, (long long)ShedExecMs, (long long)ShedSlaMs,
                (long long)ShedIntervalMs, Threads);
    OverloadReport Lazy = runOverloadMode(/*Shedding=*/false, Threads,
                                          ShedJobs, ShedExecMs, ShedSlaMs,
                                          ShedIntervalMs);
    std::printf("  lazy: %llu expired (verdict p50 %.0f ms, p95 %.0f ms; "
                "avg queue burned %.0f ms)\n",
                (unsigned long long)Lazy.ResidencyExpired,
                Lazy.FailedVerdictP50Ms, Lazy.FailedVerdictP95Ms,
                Lazy.FailedQueueMsAvg);
    OverloadReport Shed = runOverloadMode(/*Shedding=*/true, Threads,
                                          ShedJobs, ShedExecMs, ShedSlaMs,
                                          ShedIntervalMs);
    std::printf("  shed: %llu shed on arrival + %llu expired in queue + "
                "%llu lazy-expired (verdict p50 %.0f ms, p95 %.0f ms; avg "
                "queue burned %.0f ms)\n",
                (unsigned long long)Shed.ShedOnArrival,
                (unsigned long long)Shed.ExpiredInQueue,
                (unsigned long long)(Shed.ResidencyExpired -
                                     Shed.ExpiredInQueue),
                Shed.FailedVerdictP50Ms, Shed.FailedVerdictP95Ms,
                Shed.FailedQueueMsAvg);
    const double QueueSaved =
        Lazy.FailedQueueMsAvg - Shed.FailedQueueMsAvg;
    std::printf("  avg queue wait saved per doomed job: %.0f ms\n",
                QueueSaved);
    if (Shed.ShedOnArrival + Shed.ExpiredInQueue == 0)
      std::printf("WARNING: shedding mode never shed or eagerly expired\n");

    auto AppendOverload = [&Json](const OverloadReport &R) {
      char B[512];
      std::snprintf(
          B, sizeof(B),
          "    {\"mode\":\"%s\",\"jobs\":%zu,\"solved\":%zu,"
          "\"shed_on_arrival\":%llu,\"expired_in_queue\":%llu,"
          "\"residency_expired\":%llu,"
          "\"failed_verdict_p50_ms\":%.1f,\"failed_verdict_p95_ms\":%.1f,"
          "\"failed_queue_ms_avg\":%.1f,\"solved_p95_ms\":%.1f,"
          "\"wall_ms\":%.1f}",
          R.Shedding ? "shed" : "lazy", R.Jobs, R.Solved,
          (unsigned long long)R.ShedOnArrival,
          (unsigned long long)R.ExpiredInQueue,
          (unsigned long long)R.ResidencyExpired, R.FailedVerdictP50Ms,
          R.FailedVerdictP95Ms, R.FailedQueueMsAvg, R.SolvedP95Ms,
          R.WallMs);
      Json += B;
    };
    std::snprintf(Buf, sizeof(Buf),
                  ",\n  \"shedding_overload\": {\n"
                  "    \"jobs\": %zu,\n    \"exec_ms\": %lld,\n"
                  "    \"sla_ms\": %lld,\n    \"interval_ms\": %lld,\n"
                  "    \"threads\": %u,\n    \"modes\": [\n",
                  ShedJobs, (long long)ShedExecMs, (long long)ShedSlaMs,
                  (long long)ShedIntervalMs, Threads);
    Json += Buf;
    AppendOverload(Lazy);
    Json += ",\n";
    AppendOverload(Shed);
    std::snprintf(Buf, sizeof(Buf),
                  "\n    ],\n    \"avg_queue_ms_saved_per_failed_job\": "
                  "%.1f\n  }",
                  QueueSaved);
    Json += Buf;
  }
  // Observability overhead: the same trivial job stream with the metrics
  // registry + span tracing enabled vs compiled in but switched off.
  const size_t ObsJobs = static_cast<size_t>(envInt("REGEL_OBS_JOBS", 2000));
  if (ObsJobs > 0) {
    std::printf("observability overhead: %zu trivial jobs on %u workers, "
                "instrumentation on vs off...\n",
                ObsJobs, Threads);
    const double OffJps = runObsMode(/*Observability=*/false, Threads, ObsJobs);
    const double OnJps = runObsMode(/*Observability=*/true, Threads, ObsJobs);
    const double OverheadPct =
        OffJps > 0 ? (OffJps - OnJps) / OffJps * 100.0 : 0;
    std::printf("  on %.0f jobs/sec, off %.0f jobs/sec, overhead %.1f%%\n",
                OnJps, OffJps, OverheadPct);
    std::snprintf(Buf, sizeof(Buf),
                  ",\n  \"obs_overhead\": {\n    \"jobs\": %zu,\n"
                  "    \"threads\": %u,\n"
                  "    \"jobs_per_sec_on\": %.1f,\n"
                  "    \"jobs_per_sec_off\": %.1f,\n"
                  "    \"overhead_pct\": %.2f\n  }",
                  ObsJobs, Threads, OnJps, OffJps, OverheadPct);
    Json += Buf;
  }
  Json += "\n}\n";

  const char *OutPath = "BENCH_engine.json";
  if (FILE *F = std::fopen(OutPath, "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
    std::printf("wrote %s\n", OutPath);
  } else {
    std::fprintf(stderr, "cannot write %s\n", OutPath);
    return 1;
  }

  // The warm multi-worker pass's full exposition, as a sample scrape for
  // the CI artifact (and for eyeballing the metric catalog).
  const char *PromPath = "BENCH_metrics.prom";
  if (FILE *F = std::fopen(PromPath, "w")) {
    std::fputs(Multi.MetricsText.c_str(), F);
    std::fclose(F);
    std::printf("wrote %s (%zu bytes)\n", PromPath, Multi.MetricsText.size());
  } else {
    std::fprintf(stderr, "cannot write %s\n", PromPath);
    return 1;
  }

  if (Multi.JobsPerSec < Single.JobsPerSec)
    std::printf("WARNING: multi-thread pass slower than single-thread\n");
  return 0;
}
