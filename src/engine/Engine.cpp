//===- engine/Engine.cpp --------------------------------------------------===//

#include "engine/Engine.h"

#include "obs/Probe.h"
#include "synth/Synthesizer.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

using namespace regel;
using namespace regel::engine;

namespace {

/// Label fragment for a scheduling class, e.g. `pri="interactive"`.
std::string priLabel(Priority P) {
  return std::string("pri=\"") + priorityName(P) + "\"";
}

} // namespace

Engine::Engine(EngineConfig C)
    : Cfg(std::move(C)),
      Clk(Cfg.TimeSource ? Cfg.TimeSource : Clock::steady()),
      Caches(Cfg.Caches ? Cfg.Caches
                        : std::make_shared<SharedCaches>(Cfg.CacheShards,
                                                         Cfg.ApproxCacheLimits,
                                                         Cfg.SmtCacheLimits)),
      Reg(std::make_shared<obs::Registry>()),
      Tracing(std::make_shared<obs::Tracer>(Cfg.Trace)),
      Pool(Cfg.Threads, Cfg.FifoScheduling) {
  if (Cfg.Observability) {
    // Resolve every hot-path histogram once; record() afterwards touches
    // only the histogram's own atomics.
    for (unsigned P = 0; P < NumPriorities; ++P) {
      const std::string L = priLabel(static_cast<Priority>(P));
      PerPri[P].QueueUs = &Reg->histogram("regel_job_queue_us", L);
      PerPri[P].ExecUs = &Reg->histogram("regel_job_exec_us", L);
      PerPri[P].TotalUs = &Reg->histogram("regel_job_total_us", L);
      PerPri[P].EstErrUs = &Reg->histogram("regel_estimator_abs_error_us", L);
    }
    TaskExecUs = &Reg->histogram("regel_task_exec_us");
    SmtInferUs = &Reg->histogram("regel_smt_infer_us");
    ParseUs = &Reg->histogram("regel_parse_us");
  }
}

Engine::~Engine() {
  // WorkerPool's destructor drains the queues; jobs submitted before the
  // destructor all complete, their waiters wake, and their continuations
  // run (on this thread for tasks executed by the post-join drain).
}

JobPtr Engine::submit(JobRequest R) {
  // Expired queued jobs free their slots before this submission is judged
  // against the high-water mark (and before its queue-wait estimate).
  sweepExpiredQueued();
  Stats.add(Stat::JobsSubmitted);
  if (Cfg.Observability && !R.Trace)
    R.Trace = Tracing->begin();
  JobPtr J(new SynthJob(std::move(R), Clk));
  if (obs::TraceContext *T = J->Req.Trace.get())
    T->spanEnvelope("submit", "job", J->SinceSubmit.startUs(), 0);
  // A deferred job's one task until its parse fans out the rest.
  const bool Deferred = static_cast<bool>(J->Req.SketchSource);
  const size_t NumTasks = Deferred ? 1 : J->Req.Sketches.size();
  if (NumTasks == 0) {
    // Nothing to search: complete the job on the spot (it never occupies
    // the queue, so admission control does not apply).
    {
      MutexLock Guard(J->M);
      J->Result.TotalMs = J->sinceSubmitMs();
    }
    Stats.jobCompleted(/*Solved=*/false, /*DeadlineExpired=*/false,
                       /*ResidencyExpired=*/false);
    observeCompletion(J, "empty", /*ForceKeepTrace=*/false);
    publishCompletion(J);
    return J;
  }
  if (Cfg.DeadlineShedding && J->Req.ResidencyBudgetMs > 0 &&
      cannotMeetBudget(J->Req.Pri, J->Req.ResidencyBudgetMs)) {
    // Deadline-aware shedding: per the estimator this job would expire
    // before (or while) running, so telling the client NOW is strictly
    // better than letting it burn queue residency first. Distinct from
    // the Rejected high-water path so clients can distinguish "queue
    // full, retry later" from "this deadline is hopeless at current
    // service times".
    Stats.add(Stat::JobsShedOnArrival);
    {
      MutexLock Guard(J->M);
      J->Result.ShedOnArrival = true;
      J->Result.TotalMs = J->sinceSubmitMs();
    }
    observeCompletion(J, "shed", /*ForceKeepTrace=*/true);
    publishCompletion(J);
    return J;
  }
  if (!Queue.tryAdd(J, Cfg.MaxQueueDepth)) {
    // Backpressure: shed the submission instead of queueing it. tryAdd
    // checks the high-water mark and inserts atomically, so the bound
    // holds under concurrent submitters; the handle completes on the spot
    // so wait() returns (and continuations fire) immediately.
    Stats.add(Stat::JobsRejected);
    {
      MutexLock Guard(J->M);
      J->Result.Rejected = true;
      J->Result.TotalMs = J->sinceSubmitMs();
    }
    observeCompletion(J, "rejected", /*ForceKeepTrace=*/true);
    publishCompletion(J);
    return J;
  }
  // Accepted: remember what the estimator predicted so completion can
  // record the estimate-vs-actual error histogram.
  J->EstAtSubmitMs = Estimator.estimateMs(J->Req.Pri);
  J->Remaining.store(static_cast<unsigned>(NumTasks),
                     std::memory_order_relaxed);
  if (!Deferred)
    fanOut(J);
  else if (!Pool.submit([this, J] { runParseTask(J); }, J->Req.Pri))
    finishTask(J); // pool shutting down: the job ends with no sketches
  if (Cfg.DeadlineShedding && J->Req.ResidencyBudgetMs > 0) {
    // Registered AFTER the fan-out loop, so a sweep can never expire a
    // job whose submit-failure accounting is still in flight — by the
    // time an entry exists, Result.TasksSkipped is final for every task
    // the pool refused, and expireQueued's reconciliation races nothing.
    // (If every task failed, the job is already finalized; the sweep's
    // Finalized exchange drops it.) A deferred job fans out only after
    // its parse task claimed it, which the sweep cannot expire.
    {
      MutexLock Guard(HeapM);
      ResidencyHeap.push({J->residencyDeadlineUs(), J});
      NextResidencyDeadlineUs.store(ResidencyHeap.top().DeadlineUs,
                                    std::memory_order_release);
    }
  }
  return J;
}

void Engine::fanOut(const JobPtr &J) {
  const unsigned NumTasks = static_cast<unsigned>(J->Req.Sketches.size());
  for (unsigned Rank = 0; Rank < NumTasks; ++Rank) {
    if (!Pool.submit([this, J, Rank] { runSketchTask(J, Rank); },
                     J->Req.Pri)) {
      // Pool is shutting down; account the task as skipped so the job
      // still completes.
      Stats.add(Stat::TasksSkipped);
      {
        MutexLock Guard(J->M);
        ++J->Result.TasksSkipped;
      }
      finishTask(J);
    }
  }
}

void Engine::runParseTask(const JobPtr &J) {
  sweepExpiredQueued();
  if (!J->claimParse())
    return; // expired in queue: finalized by the sweep, nothing to do
  // From here the sweep cannot expire the job, so the lazy checks apply:
  // a job cancelled or out of residency before its parse never parses,
  // and completes with no sketches (finalize reports the expiry).
  std::vector<SketchPtr> Sketches;
  double ParseMs = 0;
  if (!J->Cancel.load(std::memory_order_relaxed) && !J->residencyExpired()) {
    const int64_t StartUs = Clk->nowUs();
    Sketches = J->Req.SketchSource();
    const int64_t DurUs = Clk->nowUs() - StartUs;
    ParseMs = static_cast<double>(DurUs) / 1000.0;
    if (Cfg.Observability)
      ParseUs->record(static_cast<uint64_t>(DurUs));
    if (obs::TraceContext *T = J->Req.Trace.get()) {
      obs::Span S;
      S.Name = "parse";
      S.Cat = "job";
      S.StartUs = StartUs;
      S.DurUs = DurUs;
      S.Args = {{"sketches", std::to_string(Sketches.size())}};
      T->span(std::move(S));
    }
  }
  {
    MutexLock Guard(J->M);
    J->Result.ParseMs = ParseMs;
    if (J->Req.Deterministic)
      J->PerSketch.resize(Sketches.size());
  }
  // Every later reader of the list runs after this write: the sketch
  // tasks through the pool's queues, finalize through Remaining, the
  // client through completion.
  J->Req.Sketches = std::move(Sketches);
  J->Remaining.fetch_add(static_cast<unsigned>(J->Req.Sketches.size()),
                         std::memory_order_relaxed);
  fanOut(J);
  finishTask(J); // this task's own count
}

std::vector<JobResult> Engine::runBatch(std::vector<JobRequest> Requests) {
  assert(!onPoolWorkerThread() &&
         "Engine::runBatch on an engine worker thread deadlocks the pool: "
         "it blocks on jobs only workers can run — submit() with "
         "onComplete instead");
  std::vector<JobPtr> Jobs;
  Jobs.reserve(Requests.size());
  for (JobRequest &R : Requests)
    Jobs.push_back(submit(std::move(R)));
  std::vector<JobResult> Results;
  Results.reserve(Jobs.size());
  for (const JobPtr &J : Jobs)
    Results.push_back(J->wait());
  return Results;
}

void Engine::publishCompletion(const JobPtr &J) {
  // Notifications and continuations run outside every lock so they are
  // free to call back into the job or the engine.
  std::vector<SynthJob::Callback> CBs;
  JobResult Result;
  {
    MutexLock Guard(J->M);
    J->Ready = true;
    CBs.swap(J->Callbacks);
    Result = J->Result; // immutable once Ready; copied for the unlocked
                        // continuation calls below
  }
  J->CV.notify_all();
  for (SynthJob::Callback &CB : CBs)
    CB(Result);
}

bool Engine::cannotMeetBudget(Priority P, int64_t ResidencyBudgetMs) const {
  const double ExecEst = Estimator.estimateMs(P);
  if (ExecEst < 0)
    return false; // cold start: no samples for this class, never shed
  // Queue wait model: every in-flight job still needs (on average) one
  // blended service time, spread across the workers. Deliberately simple
  // and slightly conservative — it counts running jobs as a full service
  // time — because shedding errs towards accepting: only the job's OWN
  // class estimate can shed it (isolation), and the blended figure is
  // never negative here (a warm class implies a warm blend).
  const double BlendedEst = std::max(0.0, Estimator.blendedEstimateMs());
  const double WaitEst = BlendedEst * static_cast<double>(Queue.depth()) /
                         static_cast<double>(std::max(1u, Pool.threadCount()));
  return WaitEst + ExecEst > static_cast<double>(ResidencyBudgetMs);
}

void Engine::sweepExpiredQueued() {
  // Lock-free fast path for the hot dispatch loop: nothing can have
  // lapsed before the earliest registered deadline (INT64_MAX = empty
  // heap). The atomic is only advisory — a racing push is caught by the
  // next sweep point.
  if (Clk->nowUs() <
      NextResidencyDeadlineUs.load(std::memory_order_acquire))
    return;
  std::vector<JobPtr> Lapsed;
  {
    MutexLock Guard(HeapM);
    const int64_t NowUs = Clk->nowUs();
    while (!ResidencyHeap.empty() &&
           ResidencyHeap.top().DeadlineUs <= NowUs) {
      if (JobPtr J = ResidencyHeap.top().J.lock())
        Lapsed.push_back(std::move(J));
      ResidencyHeap.pop();
    }
    NextResidencyDeadlineUs.store(ResidencyHeap.empty()
                                      ? INT64_MAX
                                      : ResidencyHeap.top().DeadlineUs,
                                  std::memory_order_release);
  }
  // Expiry (publication, continuations) runs outside HeapM so a
  // continuation is free to call back into submit or the completion API.
  for (const JobPtr &J : Lapsed)
    expireQueued(J);
}

void Engine::expireQueued(const JobPtr &J) {
  // Claim "expired before start": the CAS is the linearization point
  // against markStarted, so either this sweep wins (every task of the job
  // becomes a no-op) or some task already started (the running job will
  // clamp/expire itself through the lazy checks).
  int64_t Expected = -1;
  if (!J->ExecStartUs.compare_exchange_strong(Expected,
                                              SynthJob::ExpiredBeforeStartUs,
                                              std::memory_order_acq_rel))
    return;
  if (J->Finalized.exchange(true, std::memory_order_acq_rel))
    return; // belt: already published (e.g. every task failed to submit)
  J->Cancel.store(true, std::memory_order_relaxed);
  const uint64_t NumTasks = J->Req.Sketches.size();
  bool Solved;
  {
    MutexLock Guard(J->M);
    // Account every not-yet-accounted task as skipped (tasks dropped at
    // submit because the pool was shutting down are already counted), so
    // TasksRun + TasksSkipped still partitions the sketch list exactly.
    Stats.add(Stat::TasksSkipped, NumTasks - J->Result.TasksSkipped);
    J->Result.TasksSkipped = NumTasks;
    J->Result.ResidencyExpired = true;
    J->Result.TotalMs = J->sinceSubmitMs();
    J->Result.QueueMs = J->Result.TotalMs; // never started: all queue wait
    J->Result.ExecMs = 0;
    Solved = J->Result.solved();
  }
  Stats.jobCompleted(Solved, /*DeadlineExpired=*/false,
                     /*ResidencyExpired=*/true);
  Stats.add(Stat::JobsExpiredInQueue);
  Queue.remove(J.get());
  observeCompletion(J, "expired_in_queue", /*ForceKeepTrace=*/true);
  publishCompletion(J);
}

void Engine::runSketchTask(const JobPtr &J, unsigned Rank) {
  // Every dispatch sweeps the deadline heap first: queued jobs whose SLA
  // already lapsed complete right now, not when a worker reaches them.
  sweepExpiredQueued();
  if (!J->markStarted())
    return; // expired in queue: finalized by the sweep, nothing to do

  const JobRequest &Req = J->Req;
  bool DeadlineHit = false, ResidencyHit = false;
  // One residency sample decides both the skip branch and (below) the
  // budget clamp, so the two cannot disagree: remaining == 0 is exactly
  // the expired case, and a positive remainder is what the search gets.
  int64_t ResidencyLeftMs = 0;
  if (!J->Cancel.load(std::memory_order_relaxed)) {
    DeadlineHit = J->deadlineExpired();
    if (!DeadlineHit && Req.ResidencyBudgetMs > 0) {
      ResidencyLeftMs = J->residencyRemainingMs();
      ResidencyHit = ResidencyLeftMs == 0;
    }
    if (DeadlineHit || ResidencyHit)
      J->Cancel.store(true, std::memory_order_relaxed);
  }
  if (J->Cancel.load(std::memory_order_relaxed)) {
    // The task never ran a search: whatever set the cancel flag (sibling
    // success, client cancel, deadline, residency SLA) ends it here.
    Stats.add(Stat::TasksSkipped);
    if (obs::TraceContext *T = J->Req.Trace.get())
      T->span("task_skipped", "task", Clk->nowUs(), 0, 1 + Rank);
    MutexLock Guard(J->M);
    ++J->Result.TasksSkipped;
    if (DeadlineHit)
      J->Result.DeadlineExpired = true;
    if (ResidencyHit)
      J->Result.ResidencyExpired = true;
    // The lock is released before finishTask below; finalize re-locks.
  } else {
    SynthConfig SC = Req.Synth;
    SC.TopK = Req.TopK;
    SC.SharedApprox = &Caches->Approx;
    SC.SharedSmt = Cfg.SmtMemo ? &Caches->Smt : nullptr;
    // Deterministic jobs must not stop mid-search because a sibling
    // succeeded; they still honour client cancel() and the job deadline
    // through the same flag (set above on deadline expiry).
    SC.CancelFlag = &J->Cancel;
    // The search's wall budget runs on the engine clock, so under a
    // ManualClock a search ends exactly when virtual time says so.
    SC.TimeSource = Clk.get();

    // Per-sketch slice of the job budget: explicit, or an equal split with
    // a floor so early (better-ranked) sketches keep a meaningful slice
    // for large sketch lists; always clamped to what is left of the job.
    int64_t PerSketch = Req.PerSketchBudgetMs;
    if (PerSketch <= 0 && Req.BudgetMs > 0)
      PerSketch = std::max<int64_t>(
          Req.BudgetMs / static_cast<int64_t>(Req.Sketches.size()), 250);
    SC.BudgetMs = PerSketch;
    if (Req.BudgetMs > 0) {
      int64_t RemainingMs =
          Req.BudgetMs - static_cast<int64_t>(J->execElapsedMs());
      RemainingMs = std::max<int64_t>(RemainingMs, 1);
      SC.BudgetMs = PerSketch > 0 ? std::min(PerSketch, RemainingMs)
                                  : RemainingMs;
    }
    // The residency SLA is submit-anchored: a search may not outlive what
    // is left of it, however much execution budget remains. The sample
    // taken above is positive on this branch (zero took the skip path),
    // so it can never masquerade as SynthConfig's "no budget".
    if (Req.ResidencyBudgetMs > 0) {
      SC.BudgetMs = SC.BudgetMs > 0 ? std::min(SC.BudgetMs, ResidencyLeftMs)
                                    : ResidencyLeftMs;
    }

    // Instrumentation sinks for the synthesizer below the engine. Stack-allocated: Synth.run is synchronous and the
    // probe must not outlive this frame.
    obs::TraceContext *T = J->Req.Trace.get();
    obs::SynthProbe Probe;
    const bool Observe = Cfg.Observability;
    if (Observe) {
      Probe.Clk = Clk.get();
      Probe.SmtInferUs = SmtInferUs;
      Probe.Trace = T;
      Probe.Tid = 1 + Rank;
      SC.Probe = &Probe;
    }
    const int64_t TaskStartUs = Observe ? Clk->nowUs() : 0;

    Synthesizer Synth(SC);
    SynthResult SR = Synth.run(Req.Sketches[Rank], Req.E);
    Stats.add(Stat::TasksRun);
    Stats.addSynth(SR.Stats);
    if (SR.Cancelled)
      Stats.add(Stat::TasksStopped);
    if (Observe) {
      const int64_t TaskDurUs = Clk->nowUs() - TaskStartUs;
      TaskExecUs->record(static_cast<uint64_t>(TaskDurUs));
      if (T) {
        obs::Span S;
        S.Name = "task";
        S.Cat = "task";
        S.StartUs = TaskStartUs;
        S.DurUs = TaskDurUs;
        S.Tid = 1 + Rank;
        S.Args = {{"rank", std::to_string(Rank)},
                  {"solutions", std::to_string(SR.Solutions.size())},
                  {"pops", std::to_string(SR.Stats.Pops)},
                  {"smt_interval_evals",
                   std::to_string(SR.Stats.SmtIntervalEvals)},
                  {"smt_solves", std::to_string(SR.Stats.SmtSolves)},
                  {"smt_cache_hits", std::to_string(SR.Stats.SmtCacheHits)},
                  {"cancelled", SR.Cancelled ? "true" : "false"}};
        T->span(std::move(S));
      }
    }

    MutexLock Guard(J->M);
    ++J->Result.TasksRun;
    if (SR.Cancelled)
      ++J->Result.TasksStopped; // ran, but was stopped mid-search
    if (Req.Deterministic) {
      J->PerSketch[Rank] = std::move(SR.Solutions);
    } else {
      for (RegexPtr &R : SR.Solutions) {
        // A straggler that finished its search before noticing the cancel
        // flag must not push past the TopK contract.
        if (J->Result.Answers.size() >= Req.TopK)
          break;
        if (!J->SeenAnswers.insert(R).second)
          continue;
        J->Result.Answers.push_back({std::move(R), Rank, Req.Sketches[Rank]});
        if (J->Result.Answers.size() >= Req.TopK) {
          // Enough answers: cancel sibling tasks (queued ones will skip,
          // running ones stop at their next deadline poll).
          J->Cancel.store(true, std::memory_order_relaxed);
          break;
        }
      }
    }
  }

  finishTask(J);
}

void Engine::finishTask(const JobPtr &J) {
  if (J->Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
    finalize(J);
}

void Engine::finalize(const JobPtr &J) {
  if (J->Finalized.exchange(true, std::memory_order_acq_rel))
    return; // already published by the deadline sweep's expire path
  // Everything observable (stats, queue depth) is updated BEFORE the job
  // is published, so a waiter or continuation that observes completion
  // sees the completed state.
  bool Solved, DeadlineExpired, ResidencyExpired, RanSearch;
  uint64_t NumAnswers;
  double ExecMs;
  {
    MutexLock Guard(J->M);
    if (J->Req.Deterministic) {
      // Merge per-rank buckets in rank order: the same answer set (and
      // order) a single worker produces, whatever the thread count.
      for (unsigned Rank = 0;
           Rank < J->PerSketch.size() &&
           J->Result.Answers.size() < J->Req.TopK;
           ++Rank) {
        for (RegexPtr &R : J->PerSketch[Rank]) {
          if (!J->SeenAnswers.insert(R).second)
            continue;
          J->Result.Answers.push_back(
              {std::move(R), Rank, J->Req.Sketches[Rank]});
          if (J->Result.Answers.size() >= J->Req.TopK)
            break;
        }
      }
      J->PerSketch.clear();
    }
    J->Result.TotalMs = J->SinceSubmit.elapsedMs();
    J->Result.ExecMs = J->execElapsedMs();
    J->Result.QueueMs =
        J->Result.TotalMs - J->Result.ParseMs - J->Result.ExecMs;
    if (J->deadlineExpired() && !J->Result.solved())
      J->Result.DeadlineExpired = true;
    if (J->residencyExpired() && !J->Result.solved())
      J->Result.ResidencyExpired = true;
    Solved = J->Result.solved();
    DeadlineExpired = J->Result.DeadlineExpired;
    ResidencyExpired = J->Result.ResidencyExpired;
    NumAnswers = J->Result.Answers.size();
    ExecMs = J->Result.ExecMs;
    RanSearch = J->Result.TasksRun > 0;
  }
  // Feed the shedding estimator only with jobs that actually ran a
  // search. Truncated runs (deadline/SLA clamp) still count — the time
  // was spent — but jobs whose tasks all skipped (client cancel, expiry
  // races) would inject ~0ms samples that drag the EWMA towards zero and
  // quietly disable shedding; a burst of abandoned connections must not
  // teach the estimator that service is free.
  if (RanSearch)
    Estimator.recordSample(J->Req.Pri, ExecMs);
  Stats.jobCompleted(Solved, DeadlineExpired, ResidencyExpired);
  Stats.add(Stat::SolutionsFound, NumAnswers);
  Queue.remove(J.get());
  const char *Verdict = Solved              ? "solved"
                        : DeadlineExpired   ? "deadline_expired"
                        : ResidencyExpired  ? "residency_expired"
                                            : "no_solution";
  observeCompletion(J, Verdict,
                    /*ForceKeepTrace=*/!Solved &&
                        (DeadlineExpired || ResidencyExpired));
  publishCompletion(J);
}

StatsSnapshot Engine::snapshot() const {
  StatsSnapshot S;
  Stats.fill(S);
  S.TasksStolen = Pool.tasksStolen();
  S.TasksRunInteractive = Pool.tasksRun(Priority::Interactive);
  S.TasksRunBatch = Pool.tasksRun(Priority::Batch);
  S.TasksRunBackground = Pool.tasksRun(Priority::Background);
  S.WorkerThreads = Pool.threadCount();
  S.QueueDepth = queueDepth();
  S.ApproxStoreHits = Caches->Approx.hits();
  S.ApproxStoreMisses = Caches->Approx.misses();
  S.ApproxStoreSize = Caches->Approx.size();
  S.ApproxStoreEvictions = Caches->Approx.evictions();
  S.SmtStoreHits = Caches->Smt.hits();
  S.SmtStoreMisses = Caches->Smt.misses();
  S.SmtStoreSize = Caches->Smt.size();
  S.SmtStoreEvictions = Caches->Smt.evictions();
  S.EstimatorInteractiveMs = Estimator.estimateMs(Priority::Interactive);
  S.EstimatorBatchMs = Estimator.estimateMs(Priority::Batch);
  S.EstimatorBackgroundMs = Estimator.estimateMs(Priority::Background);
  S.EstimatorBlendedMs = Estimator.blendedEstimateMs();
  S.EstimatorSamplesInteractive = Estimator.samples(Priority::Interactive);
  S.EstimatorSamplesBatch = Estimator.samples(Priority::Batch);
  S.EstimatorSamplesBackground = Estimator.samples(Priority::Background);
  return S;
}

void Engine::observeCompletion(const JobPtr &J, const char *Verdict,
                               bool ForceKeepTrace) {
  // Called after the result is final and before publishCompletion, on
  // every completion path (normal, expired-in-queue, and the submit-time
  // fast paths), so this is the one place job-level latency histograms
  // and job/queue/exec spans are recorded.
  double QueueMs, ParseMs, ExecMs, TotalMs;
  bool Ran, Accepted;
  {
    MutexLock Guard(J->M);
    QueueMs = J->Result.QueueMs;
    ParseMs = J->Result.ParseMs;
    ExecMs = J->Result.ExecMs;
    TotalMs = J->Result.TotalMs;
    Ran = J->Result.TasksRun > 0;
    // Rejected/shed submissions and empty jobs never occupied the queue;
    // their (near-zero) latencies would only distort the accepted-job
    // histograms. Their counters are tracked separately.
    Accepted = !J->Result.Rejected && !J->Result.ShedOnArrival &&
               (!J->Req.Sketches.empty() || J->Req.SketchSource);
  }
  if (Cfg.Observability && Accepted) {
    JobHists &H = PerPri[static_cast<unsigned>(J->Req.Pri)];
    H.QueueUs->recordMs(QueueMs);
    H.ExecUs->recordMs(ExecMs);
    H.TotalUs->recordMs(TotalMs);
    // Estimate-vs-actual absolute error, only when both sides exist (the
    // class was warm at submit and the job really ran a search).
    if (Ran && J->EstAtSubmitMs >= 0)
      H.EstErrUs->recordMs(std::fabs(J->EstAtSubmitMs - ExecMs));
  }
  if (const std::shared_ptr<obs::TraceContext> &T = J->Req.Trace) {
    const int64_t SubmitUs = J->SinceSubmit.startUs();
    if (Accepted) {
      // Everything before the first sketch task, the parse included (its
      // own span nests inside).
      T->spanEnvelope("queue", "job", SubmitUs,
              static_cast<int64_t>((QueueMs + ParseMs) * 1000.0 + 0.5));
      const int64_t ExecRelUs =
          J->ExecStartUs.load(std::memory_order_acquire);
      if (ExecRelUs >= 0)
        T->spanEnvelope("exec", "job", SubmitUs + ExecRelUs,
                static_cast<int64_t>(ExecMs * 1000.0 + 0.5));
    }
    T->spanEnvelope("job", "job", SubmitUs,
            static_cast<int64_t>(TotalMs * 1000.0 + 0.5));
    T->setVerdict(Verdict);
    // Advertise the trace id only when the ring retained the trace: a
    // trace= the server cannot serve is worse than none.
    if (Tracing->finish(T, ForceKeepTrace)) {
      MutexLock Guard(J->M);
      J->Result.TraceId = T->id();
    }
  }
}

void Engine::mirrorSnapshot() const {
  const StatsSnapshot S = snapshot();
  for (const StatRow &Row : StatRows) {
    if (!Row.Name)
      continue;
    switch (Row.Kind) {
    case StatKind::Count:
      Reg->counter(Row.Name, Row.Labels).set(S.*Row.U64);
      break;
    case StatKind::Level:
      Reg->gauge(Row.Name, Row.Labels).set(static_cast<int64_t>(S.*Row.U64));
      break;
    case StatKind::MsTotal:
      Reg->counter(Row.Name, Row.Labels)
          .set(static_cast<uint64_t>(S.*Row.Ms * 1000.0));
      break;
    case StatKind::MsEstimate:
      // -1 = cold. A SUM of these gauges across expositions is
      // meaningless — read them per engine.
      Reg->gauge(Row.Name, Row.Labels)
          .set(S.*Row.Ms < 0 ? int64_t(-1)
                             : static_cast<int64_t>(S.*Row.Ms * 1000.0));
      break;
    }
  }
}

std::string Engine::metricsText() const {
  mirrorSnapshot();
  return Reg->renderText();
}
