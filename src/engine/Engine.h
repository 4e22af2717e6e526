//===- engine/Engine.h - Concurrent synthesis engine ------------*- C++ -*-===//
//
// Part of the Regel reproduction. The serving layer the paper's Sec. 6
// parallelism grows into: one persistent Engine per process (or per
// tenant) accepts many concurrent synthesis jobs, parses a job's
// description on a worker when it carries one, fans each job out into one
// task per sketch on a shared priority-aware work-stealing pool, cancels
// sibling tasks as soon as a job has its TopK answers, enforces per-job
// deadlines, and shares the sketch-approximation and SMT verdict caches
// across every run. Admission is deadline-aware: a per-class EWMA of
// service time sheds submissions whose residency SLA cannot be met
// (ShedOnArrival), and a deadline min-heap expires queued jobs eagerly
// the moment their SLA lapses instead of when a worker finally reaches
// them. All semantic time flows through the Clock seam (EngineConfig::
// TimeSource), so every budget, SLA, and timed wait is testable to the
// millisecond under a ManualClock. Completion is async-first: jobs notify
// through onComplete continuations, so a single-threaded event loop (the
// socket server in src/server, through service::LocalService) can drive
// thousands of in-flight jobs without blocking a thread per job.
// core/Regel is a thin client of this class; servers and benches can
// drive it directly through the batch API.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_ENGINE_ENGINE_H
#define REGEL_ENGINE_ENGINE_H

#include "engine/Estimator.h"
#include "engine/Job.h"
#include "engine/Stats.h"
#include "engine/WorkerPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Clock.h"
#include "support/Mutex.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

namespace regel::engine {

/// The two cross-run stores one engine (or several engines, when passed
/// explicitly) shares across all jobs.
struct SharedCaches {
  explicit SharedCaches(unsigned NumShards = 16, CacheLimits ApproxLimits = {},
                        CacheLimits SmtLimits = {})
      : Approx(NumShards, ApproxLimits), Smt(NumShards, SmtLimits) {}

  ShardedApproxStore Approx;
  smt::ShardedSmtCache Smt;
};

struct EngineConfig {
  /// Worker threads in the pool. Zero is a test-harness mode: jobs are
  /// accepted and queued but never execute (until the destructor drains
  /// them), giving deterministic control over queue-state behaviour —
  /// admission, shedding, eager expiry — under a ManualClock.
  unsigned Threads = 2;

  /// Shards per cross-run cache (locks scale with this).
  unsigned CacheShards = 16;

  /// Cross-run caches to use. When null the engine creates its own;
  /// passing one lets several engines (or engine generations across
  /// restarts of a config) share warmed caches.
  std::shared_ptr<SharedCaches> Caches;

  /// Size caps for the self-created caches (ignored when Caches is passed
  /// in — the owner of a shared cache decides its limits). Zero fields
  /// mean unbounded; see CacheLimits. DfaCacheLimits is accepted and
  /// ignored: feasibility checks match examples directly, so the engine
  /// keeps no regex->DFA cache. The field remains only so configurations
  /// that still set it compile.
  CacheLimits DfaCacheLimits;
  CacheLimits ApproxCacheLimits;
  CacheLimits SmtCacheLimits;

  /// Cross-run SMT verdict memoization (on by default): synthesis runs
  /// get SynthConfig::SharedSmt pointed at the shared verdict store. Off
  /// detaches it (every run solves from scratch), so the bench can
  /// measure what the store buys and operators can rule it out when
  /// chasing a wrong-answer report.
  bool SmtMemo = true;

  /// Admission control high-water mark (0 = off): a submission arriving
  /// while queueDepth() is at or above this is rejected outright — the
  /// returned job completes immediately with Rejected set and nothing is
  /// enqueued. Shedding at submit keeps a loaded engine's queue (and thus
  /// every accepted job's residency) bounded instead of letting latency
  /// grow without limit.
  size_t MaxQueueDepth = 0;

  /// Ignore JobRequest::Pri and schedule every task in one FIFO band per
  /// worker — the pre-priority behaviour. Exists so the fairness bench
  /// (and regressions) can measure what weighted priority picking buys;
  /// leave off in production.
  bool FifoScheduling = false;

  /// Time source for every semantic time read in the engine — job
  /// residency SLAs, deadlines, timed waits, search budgets, latency
  /// accounting. Null means the process steady clock; tests inject a
  /// ManualClock to drive all of it deterministically.
  std::shared_ptr<const Clock> TimeSource;

  /// Deadline-aware shedding (on by default): jobs whose ResidencyBudgetMs
  /// cannot be met given the service-time estimator's current view are
  /// shed at submit (JobResult::ShedOnArrival) instead of expiring in
  /// queue, and queued jobs whose SLA lapses are expired eagerly by a
  /// deadline-heap sweep on each dispatch rather than lazily at task
  /// start. Off reverts to the lazy pre-shedding behaviour — kept so the
  /// overload bench can measure what shedding buys.
  bool DeadlineShedding = true;

  /// Observability (on by default): latency histograms recorded into the
  /// engine's obs::Registry and per-job span tracing. Off compiles the
  /// hot path down to flag tests — no histogram records, no trace
  /// allocations — which is what the bench's overhead row compares
  /// against. The registry itself always exists (metricsText() still
  /// exposes the engine counters), only the per-job recording is gated.
  bool Observability = true;

  /// Trace sampling and retention knobs (see obs::Tracer::Config):
  /// failed jobs (shed/rejected/expired/SLA-missed) are always retained,
  /// successes at Trace.SampleProb.
  obs::Tracer::Config Trace;
};

class Engine {
public:
  explicit Engine(EngineConfig Cfg = EngineConfig());

  /// Cancels nothing: drains every queued task, then joins the workers.
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Enqueues one job; returns immediately with a handle carrying the
  /// async completion API (onComplete / waitFor / wait). Under
  /// backpressure (MaxQueueDepth reached) the job is rejected instead of
  /// enqueued: the handle is already complete with Result.Rejected set
  /// (continuations registered on it run immediately — a rejected job is
  /// a completion the client must see). A request with a
  /// SketchSource is admitted the same way and then queues one parse
  /// task; its sketch tasks are fanned out by that task, on a worker.
  JobPtr submit(JobRequest R);

  /// Submits every request, then blocks until all are done. Results are
  /// positionally aligned with \p Requests. Must not be called from a
  /// worker thread (it blocks; debug builds assert).
  std::vector<JobResult> runBatch(std::vector<JobRequest> Requests);

  /// Jobs submitted but not yet completed.
  size_t queueDepth() const { return Queue.depth(); }

  /// Cancels every in-flight job.
  void cancelAll() { Queue.cancelAll(); }

  /// Point-in-time copy of all counters, including cache and pool state.
  StatsSnapshot snapshot() const;

  /// Prometheus-style text exposition of every engine metric: the
  /// snapshot counters mirrored into the registry plus the live latency
  /// histograms (per-class queue/exec/total, per-task exec, SMT
  /// inference, estimator error). The uniform read surface — the
  /// socket server's v2 `metrics` frame and the bench's percentile rows
  /// both come from here.
  std::string metricsText() const;

  /// Chrome trace_event JSON of retained trace \p Id ("" when unknown —
  /// sampled out, evicted, or never traced).
  std::string traceJson(uint64_t Id) const { return Tracing->traceJson(Id); }

  /// The metrics registry (never null). Exposed so tests and benches can
  /// read histogram snapshots directly and servers can add their own
  /// series next to the engine's.
  const std::shared_ptr<obs::Registry> &registry() const { return Reg; }

  /// The span tracer (never null). Shared so a test can outlive the
  /// engine and still inspect retained traces.
  const std::shared_ptr<obs::Tracer> &tracer() const { return Tracing; }

  SharedCaches &caches() { return *Caches; }

  const EngineConfig &config() const { return Cfg; }
  unsigned threadCount() const { return Pool.threadCount(); }

  /// The engine's time source (never null; defaults to Clock::steady()).
  const std::shared_ptr<const Clock> &clock() const { return Clk; }

  /// Earliest residency deadline among queued SLA jobs, as an absolute
  /// engine-clock instant in us (INT64_MAX when none). Lock-free read of
  /// the sweep's advisory atomic: an event loop bounds its poll timeout
  /// by this and then calls sweepExpiredQueued(), so eager-expiry
  /// verdicts surface when they are due instead of at the next
  /// fixed-interval tick (the timer half of the deadline sweep;
  /// dispatch/submit remain the event-driven half).
  int64_t nextResidencyDeadlineUs() const {
    return NextResidencyDeadlineUs.load(std::memory_order_acquire);
  }

  /// The service-time estimator behind deadline-aware shedding. Exposed
  /// so tests can prime known estimates deterministically and monitoring
  /// can read convergence; production code only feeds it via completions.
  ServiceTimeEstimator &estimator() { return Estimator; }

  /// Pops every residency-heap entry whose deadline has passed and
  /// expires the jobs that never started (ResidencyExpired published
  /// immediately, continuations run on this thread; their queued tasks
  /// become no-ops). The engine calls it on each dispatch and each
  /// submit; an event loop calls it too, timed by
  /// nextResidencyDeadlineUs(), so expiry stays eager even when no
  /// worker frees up. Cheap when nothing has lapsed (one atomic read).
  void sweepExpiredQueued();

private:
  /// Queues one search task per sketch of \p J (the pool refusing one,
  /// at shutdown, accounts it as skipped).
  void fanOut(const JobPtr &J);
  /// A deferred job's first task: calls the request's SketchSource, then
  /// fans out its sketches.
  void runParseTask(const JobPtr &J);
  void runSketchTask(const JobPtr &J, unsigned Rank);
  void finishTask(const JobPtr &J);
  void finalize(const JobPtr &J);

  /// True when, per the estimator's current view, a job of class \p P
  /// submitted now cannot meet \p ResidencyBudgetMs (estimated queue wait
  /// plus estimated exec exceed it). Cold classes never shed.
  bool cannotMeetBudget(Priority P, int64_t ResidencyBudgetMs) const;

  /// Expires one still-queued job in place (the sweep's slow path).
  void expireQueued(const JobPtr &J);

  /// Publishes a finished job: marks it Ready, wakes waiters, and runs
  /// continuations. Pre: J->Result is final; called exactly once.
  void publishCompletion(const JobPtr &J);

  /// Records the job-level latency histograms and spans at completion
  /// (no-op when observability is off or nothing is traced).
  void observeCompletion(const JobPtr &J, const char *Verdict,
                         bool ForceKeepTrace);

  /// Copies the current StatsSnapshot into the registry, one series per
  /// exposed table row (called by metricsText, so it is point-in-time).
  void mirrorSnapshot() const;

  EngineConfig Cfg;
  std::shared_ptr<const Clock> Clk; ///< never null
  std::shared_ptr<SharedCaches> Caches;
  std::shared_ptr<obs::Registry> Reg;    ///< never null
  std::shared_ptr<obs::Tracer> Tracing;  ///< never null

  /// Hot-path histogram handles, resolved once at construction (null when
  /// Cfg.Observability is off). Per scheduling class for the job-level
  /// latencies; unlabeled for the task/SMT timings.
  struct JobHists {
    obs::Histogram *QueueUs = nullptr;
    obs::Histogram *ExecUs = nullptr;
    obs::Histogram *TotalUs = nullptr;
    obs::Histogram *EstErrUs = nullptr;
  };
  JobHists PerPri[NumPriorities];
  obs::Histogram *TaskExecUs = nullptr;
  obs::Histogram *SmtInferUs = nullptr;
  obs::Histogram *ParseUs = nullptr;

  EngineStats Stats;
  ServiceTimeEstimator Estimator;
  JobQueue Queue;

  /// Min-heap of residency deadlines for accepted jobs with an SLA, swept
  /// by sweepExpiredQueued. weak_ptr so a completed job's result is not
  /// retained until its (now irrelevant) deadline passes.
  struct ResidencyEntry {
    int64_t DeadlineUs;
    std::weak_ptr<SynthJob> J;
  };
  struct LaterDeadline {
    bool operator()(const ResidencyEntry &A, const ResidencyEntry &B) const {
      return A.DeadlineUs > B.DeadlineUs;
    }
  };
  mutable Mutex HeapM;
  std::priority_queue<ResidencyEntry, std::vector<ResidencyEntry>,
                      LaterDeadline>
      ResidencyHeap REGEL_GUARDED_BY(HeapM);

  /// Earliest deadline in ResidencyHeap (INT64_MAX = empty), written
  /// under HeapM, read lock-free: the sweep's fast path skips the mutex
  /// on every dispatch while no deadline can have lapsed.
  std::atomic<int64_t> NextResidencyDeadlineUs{INT64_MAX};

  WorkerPool Pool; ///< last member: destroyed (and drained) first
};

} // namespace regel::engine

#endif // REGEL_ENGINE_ENGINE_H
