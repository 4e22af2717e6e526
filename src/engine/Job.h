//===- engine/Job.h - Synthesis jobs ----------------------------*- C++ -*-===//
//
// Part of the Regel reproduction. A SynthJob is one multi-modal synthesis
// request (sketch list, or a description to parse into one, + examples)
// submitted to the engine. The engine fans it out into one task per
// sketch, after a first task that parses the description when the request
// carries one; the job object carries the shared state those tasks
// coordinate through:
//
//   * a cancellation flag — set when the job has TopK answers (so sibling
//     sketch tasks stop mid-search), when the per-job deadline passes, or
//     when the client calls cancel();
//   * a per-job deadline started at submission;
//   * the answer collector (mutex-guarded; per-rank buckets in
//     deterministic mode);
//   * the completion machinery: a latch (wait / waitFor) and registered
//     onComplete continuations.
//
// Completion is async-first: continuations are the primary mechanism (one
// event-loop thread can drive thousands of jobs through them, as
// service::LocalService does), and wait() is a thin blocking shim kept for
// simple clients.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_ENGINE_JOB_H
#define REGEL_ENGINE_JOB_H

#include "engine/WorkerPool.h"
#include "obs/Trace.h"
#include "sketch/Sketch.h"
#include "support/Mutex.h"
#include "support/Timer.h"
#include "synth/Config.h"
#include "synth/PartialRegex.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace regel::engine {

class Engine;

/// One synthesis request, as accepted by Engine::submit.
struct JobRequest {
  /// Ranked, best first. For a request with a SketchSource this starts
  /// empty and holds the source's list once the parse ran; read it then
  /// only after the job completed.
  std::vector<SketchPtr> Sketches;

  /// Deferred sketch list (null = Sketches is the list). The engine
  /// admits the job as usual, then runs the source on a worker as the
  /// job's first task, at the job's priority, and fans out one search
  /// task per sketch it returns. A job cancelled or expired before that
  /// task starts never calls it. Called at most once, from any worker
  /// thread. regel::buildJobRequest's description overload builds one
  /// over the NL parser, so parsing runs in the engine instead of on the
  /// submitting thread.
  std::function<std::vector<SketchPtr>()> SketchSource;

  Examples E;
  unsigned TopK = 1;

  /// Scheduling class: every per-sketch task the job fans out is queued
  /// under this priority, so a Batch fan-out cannot starve Interactive
  /// queries sharing the pool (the workers pick weighted by class; see
  /// WorkerPool). Interactive is the default so priority-unaware callers
  /// behave exactly as before.
  Priority Pri = Priority::Interactive;

  /// Per-job deadline in milliseconds (0 = none). The clock starts when
  /// the job's first sketch task begins executing, not at submission and
  /// not at the parse: BudgetMs is the paper's synthesis budget t, and
  /// neither queue wait under load nor parsing may eat it.
  int64_t BudgetMs = 10000;
  int64_t PerSketchBudgetMs = 0; ///< 0 = BudgetMs / #sketches, 250ms floor

  /// Submit-anchored residency SLA in milliseconds (0 = none): bounds
  /// queue wait PLUS execution, complementing the execution-anchored
  /// BudgetMs. A job still queued when it expires is skipped without
  /// running (its tasks count as skipped and the result reports
  /// ResidencyExpired); a running job has its remaining search budget
  /// clamped so it cannot outlive the SLA either.
  int64_t ResidencyBudgetMs = 0;
  SynthConfig Synth;             ///< base PBE settings for every task

  /// Deterministic mode: run every sketch task to completion (no
  /// cancellation on success) and order answers by sketch rank, so the
  /// result is independent of worker count and scheduling — PROVIDED the
  /// per-sketch searches are themselves deterministic. Wall-clock budgets
  /// are not: set BudgetMs = 0 and bound the search with
  /// Synth.MaxPops instead (as the determinism tests do). Costs the work
  /// cancellation would have skipped.
  bool Deterministic = false;

  /// Span sink for this job (normally created by the engine at submit when
  /// the tracer samples the job; a caller may pre-attach one to force
  /// tracing). Spans are recorded from submit through queue, dispatch,
  /// per-sketch task, and SMT inference; the final trace id
  /// is reported in JobResult::TraceId and fetchable while retained.
  std::shared_ptr<obs::TraceContext> Trace;

  std::string Tag; ///< free-form client label (server/bench reporting)
};

/// One answer of a job.
struct JobAnswer {
  RegexPtr Regex;
  unsigned SketchRank = 0; ///< rank of the sketch that produced it
  SketchPtr Sketch;
};

/// Final outcome of a job. Task counts partition the job's sketch list:
/// TasksRun + TasksSkipped equals the number of sketches, and TasksStopped
/// is the subset of TasksRun that was cancelled mid-search. The times
/// partition TotalMs: QueueMs + ParseMs + ExecMs.
struct JobResult {
  std::vector<JobAnswer> Answers; ///< up to TopK
  double QueueMs = 0;   ///< waiting for a worker, before and after the parse
  double TotalMs = 0;   ///< submit -> completion (includes queue wait)
  double ParseMs = 0;   ///< the SketchSource call (0 without one)
  double ExecMs = 0;    ///< first sketch task started -> completion
  uint64_t TasksRun = 0;     ///< tasks that executed a search
  uint64_t TasksSkipped = 0; ///< tasks cancelled before starting
  uint64_t TasksStopped = 0; ///< subset of TasksRun, stopped mid-search
  bool DeadlineExpired = false;
  bool ResidencyExpired = false; ///< submit-anchored SLA missed
  bool Rejected = false; ///< shed by queue-depth admission; nothing ran

  /// Shed by deadline-aware admission: the service-time estimator judged
  /// ResidencyBudgetMs unmeetable at submit, so nothing was enqueued.
  /// Distinct from Rejected (queue-depth high-water) — a client can back
  /// off differently for "queue full" vs "your deadline is hopeless".
  bool ShedOnArrival = false;

  /// Id of the job's span trace (0 = not traced). Non-zero does not
  /// guarantee the trace is still fetchable: retention is sampled and the
  /// ring is bounded — see obs::Tracer.
  uint64_t TraceId = 0;

  bool solved() const { return !Answers.empty(); }
};

/// The distinct answers a job has collected. Identity is full structural
/// equality (RegexPtrEq); the hash only picks buckets, so a collision can
/// never merge two distinct answers, and tests can inject a degenerate hash
/// to pin that. A null function selects Regex::hash.
struct AnswerHash {
  size_t (*Fn)(const RegexPtr &) = nullptr;
  size_t operator()(const RegexPtr &R) const {
    return Fn ? Fn(R) : R->hash();
  }
};
using AnswerSet = std::unordered_set<RegexPtr, AnswerHash, RegexPtrEq>;

/// Handle to a submitted job. Created by Engine::submit; shared between
/// the client and the in-flight tasks.
class SynthJob {
public:
  /// A completion continuation. Invoked exactly once per registration,
  /// with the final result.
  using Callback = std::function<void(const JobResult &)>;

  /// Registers a continuation:
  ///
  ///   * registered before completion, it runs on the worker thread that
  ///     finishes the job (for jobs completed at submit — rejected or
  ///     empty — on the submitting thread), after the result is final and
  ///     done() is true;
  ///   * registered after completion, it runs synchronously on the
  ///     registering thread, before onComplete returns;
  ///   * a registration racing completion resolves to exactly one of the
  ///     two — never zero or two invocations.
  ///
  /// Multiple continuations may be registered; each runs exactly once, in
  /// registration order. Continuations must not block (they hold up the
  /// finishing worker): hand the result to another thread, as
  /// service::LocalService does for its event loop.
  void onComplete(Callback CB);

  /// Blocks until every task of the job has finished, then returns a copy
  /// of the result (by value, so `engine.submit(...)->wait()` is safe even
  /// though the temporary handle dies with the full expression). A thin
  /// shim over the timed wait; kept for simple synchronous clients.
  ///
  /// Must not be called from an engine worker thread — the worker would
  /// wait on work only it can run. Debug builds assert on this.
  JobResult wait();

  /// Blocks until the job completes or \p TimeoutMs milliseconds pass.
  /// Returns the result on completion, std::nullopt on timeout (the job
  /// keeps running; cancel() it to give up on it).
  std::optional<JobResult> waitFor(int64_t TimeoutMs);

  /// Non-blocking completion probe.
  bool done() const;

  /// Requests cancellation: running tasks stop at their next deadline
  /// poll, queued ones return immediately. wait() still returns (with
  /// whatever answers were collected before the cancel), and completion
  /// continuations still fire exactly once.
  void cancel() { Cancel.store(true, std::memory_order_relaxed); }

  const JobRequest &request() const { return Req; }

  /// Milliseconds of residency SLA left, re-sampled through the job's
  /// clock NOW (never a value cached at submit); 0 once the SLA has
  /// expired. Callers must branch on a zero return rather than pass the
  /// value to a budget field where 0 means "unlimited". Meaningless when
  /// the request has no ResidencyBudgetMs. Public so clients reclaiming
  /// abandoned work (the socket server) bound their waits by live SLA
  /// math on the same — possibly virtual — timeline the engine enforces.
  int64_t residencyRemainingMs() const {
    return std::max<int64_t>(
        Req.ResidencyBudgetMs - static_cast<int64_t>(sinceSubmitMs()), 0);
  }

private:
  friend class Engine;

  /// ExecStartUs values before the first sketch task: queued (the only
  /// state the deadline sweep expires from), expired in queue (claimed by
  /// the sweep; excludes every task), and parse claimed (the sweep can no
  /// longer expire the job; lazy checks in the tasks take over).
  static constexpr int64_t NotStartedUs = -1;
  static constexpr int64_t ExpiredBeforeStartUs = -2;
  static constexpr int64_t ParsingUs = -3;

  SynthJob(JobRequest R, std::shared_ptr<const Clock> C);

  /// Claims the job for its parse task. Returns false iff the deadline
  /// sweep already expired the job in queue (the task must do nothing).
  bool claimParse();

  /// Marks execution started (first sketch task wins; later calls no-op).
  /// Returns false iff the engine's deadline sweep already expired the
  /// job in queue — the task must not run, touch the result, or account
  /// anything (the sweep accounted every task as skipped).
  bool markStarted();

  /// Milliseconds of execution so far (0 before the first task starts).
  double execElapsedMs() const;

  /// True once the execution-anchored deadline has passed.
  bool deadlineExpired() const {
    return Req.BudgetMs > 0 &&
           execElapsedMs() >= static_cast<double>(Req.BudgetMs);
  }

  /// Milliseconds since submission (queue wait included).
  double sinceSubmitMs() const { return SinceSubmit.elapsedMs(); }

  /// True once the submit-anchored residency SLA has passed.
  bool residencyExpired() const {
    return Req.ResidencyBudgetMs > 0 && residencyRemainingMs() == 0;
  }

  /// Absolute clock instant (us) the residency SLA lapses. Only
  /// meaningful when ResidencyBudgetMs > 0.
  int64_t residencyDeadlineUs() const {
    return SinceSubmit.startUs() + Req.ResidencyBudgetMs * 1000;
  }

  JobRequest Req;
  /// The engine's time source. Shared ownership: a client can hold the
  /// handle (and call waitFor) after the engine is gone.
  std::shared_ptr<const Clock> Clk;
  std::atomic<bool> Cancel{false};
  std::atomic<unsigned> Remaining{0}; ///< tasks not yet finished
  /// Exactly-once guard on finalization: the normal last-task path and
  /// the deadline sweep's expire-in-queue path both publish through it.
  std::atomic<bool> Finalized{false};
  Stopwatch SinceSubmit;
  /// Microseconds from submission to first sketch task start, or one of
  /// the negative states above. Anchors the per-job deadline and ExecMs.
  std::atomic<int64_t> ExecStartUs{NotStartedUs};

  /// The estimator's exec estimate for the job's class, sampled at accept
  /// time (negative = cold). Compared against actual ExecMs at completion
  /// to feed the estimator-error histogram — the figure that shows
  /// whether the EWMA over- or under-estimates a class.
  double EstAtSubmitMs = -1.0;

  // Collector state (guarded by M).
  mutable Mutex M;
  std::condition_variable CV;
  bool Ready REGEL_GUARDED_BY(M) = false;
  /// Pending continuations (pre-Ready).
  std::vector<Callback> Callbacks REGEL_GUARDED_BY(M);
  /// Structural dedup across sketches.
  AnswerSet SeenAnswers REGEL_GUARDED_BY(M);
  /// Deterministic buckets.
  std::vector<std::vector<RegexPtr>> PerSketch REGEL_GUARDED_BY(M);
  JobResult Result REGEL_GUARDED_BY(M);

  // CV-wait predicate: runs inside waitFor with M held, but Clang
  // analyzes the lambda body as an unlocked function.
  bool readyPred() const REGEL_NO_THREAD_SAFETY_ANALYSIS { return Ready; }
};

using JobPtr = std::shared_ptr<SynthJob>;

/// Registry of in-flight jobs: submission enqueues, completion dequeues.
/// Gives the engine a live view for monitoring (depth gauge), a drain
/// barrier for shutdown, and bulk cancellation.
class JobQueue {
public:
  /// Adds \p J unless the queue already holds \p MaxDepth jobs (0 = no
  /// limit); returns false without adding when full. Check and insert are
  /// one critical section, so the admission bound is firm even when many
  /// clients submit concurrently.
  bool tryAdd(const JobPtr &J, size_t MaxDepth);
  void remove(const SynthJob *J);

  /// Number of jobs submitted but not yet completed.
  size_t depth() const;

  /// Requests cancellation of every in-flight job.
  void cancelAll();

  /// Blocks until the queue is empty.
  void drain();

private:
  mutable Mutex M;
  std::condition_variable CV;
  std::vector<JobPtr> Active REGEL_GUARDED_BY(M);

  // CV-wait predicate: runs inside drain with M held (see SynthJob).
  bool drainedPred() const REGEL_NO_THREAD_SAFETY_ANALYSIS {
    return Active.empty();
  }
};

} // namespace regel::engine

#endif // REGEL_ENGINE_JOB_H
