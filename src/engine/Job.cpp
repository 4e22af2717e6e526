//===- engine/Job.cpp -----------------------------------------------------===//

#include "engine/Job.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace regel;
using namespace regel::engine;

SynthJob::SynthJob(JobRequest R, std::shared_ptr<const Clock> C)
    : Req(std::move(R)), Clk(C ? std::move(C) : Clock::steady()),
      SinceSubmit(Clk.get()) {
  if (Req.Deterministic)
    PerSketch.resize(Req.Sketches.size());
}

bool SynthJob::claimParse() {
  int64_t Expected = NotStartedUs;
  return ExecStartUs.compare_exchange_strong(Expected, ParsingUs,
                                             std::memory_order_acq_rel);
}

bool SynthJob::markStarted() {
  const int64_t NowUs =
      static_cast<int64_t>(SinceSubmit.elapsedMs() * 1000.0);
  int64_t Expected = ExecStartUs.load(std::memory_order_acquire);
  while (Expected == NotStartedUs || Expected == ParsingUs)
    if (ExecStartUs.compare_exchange_weak(Expected, NowUs,
                                          std::memory_order_acq_rel))
      return true;
  // Lost the race: either a sibling task started first (normal) or the
  // deadline sweep expired the job in queue (the task must bail out).
  return Expected != ExpiredBeforeStartUs;
}

double SynthJob::execElapsedMs() const {
  int64_t StartUs = ExecStartUs.load(std::memory_order_relaxed);
  if (StartUs < 0)
    return 0;
  return SinceSubmit.elapsedMs() - static_cast<double>(StartUs) / 1000.0;
}

void SynthJob::onComplete(Callback CB) {
  {
    MutexLock Guard(M);
    if (!Ready) {
      Callbacks.push_back(std::move(CB));
      return;
    }
    // Already complete: fall through and run on the registering thread.
    // The race with a concurrent completion resolves under M — either the
    // callback made it into Callbacks before Ready was set (the finisher
    // runs it) or Ready was observed here (we run it) — never both.
  }
  // Result is immutable once Ready; invoking outside the lock keeps a
  // continuation free to call done()/wait()/onComplete itself. The
  // unguarded read is safe for the same reason, which the analysis
  // cannot see — copy it out under the lock instead of suppressing.
  JobResult Copy;
  {
    MutexLock Guard(M);
    Copy = Result;
  }
  CB(Copy);
}

JobResult SynthJob::wait() {
  assert(!onPoolWorkerThread() &&
         "SynthJob::wait() on an engine worker thread deadlocks the pool: "
         "the worker blocks on work only workers can run — use "
         "onComplete/waitFor or restructure the caller");
  // Thin shim over the timed wait (the async-first primitive): loop a
  // long slice so spurious wakeups and the shim share one code path.
  for (;;)
    if (std::optional<JobResult> R = waitFor(60 * 60 * 1000))
      return *R;
}

std::optional<JobResult> SynthJob::waitFor(int64_t TimeoutMs) {
  // The timeout runs on the job's clock: under a ManualClock a
  // waitFor(50) times out when 50 *virtual* ms have been advanced, which
  // is what makes timeout paths testable without real sleeps.
  UniqueLock Guard(M);
  if (!Clk->waitFor(CV, Guard.native(), TimeoutMs,
                    [this] { return readyPred(); }))
    return std::nullopt;
  return Result;
}

bool SynthJob::done() const {
  MutexLock Guard(M);
  return Ready;
}

bool JobQueue::tryAdd(const JobPtr &J, size_t MaxDepth) {
  MutexLock Guard(M);
  if (MaxDepth && Active.size() >= MaxDepth)
    return false;
  Active.push_back(J);
  return true;
}

void JobQueue::remove(const SynthJob *J) {
  {
    MutexLock Guard(M);
    Active.erase(std::remove_if(Active.begin(), Active.end(),
                                [J](const JobPtr &P) { return P.get() == J; }),
                 Active.end());
  }
  CV.notify_all();
}

size_t JobQueue::depth() const {
  MutexLock Guard(M);
  return Active.size();
}

void JobQueue::cancelAll() {
  std::vector<JobPtr> Snapshot;
  {
    MutexLock Guard(M);
    Snapshot = Active;
  }
  for (const JobPtr &J : Snapshot)
    J->cancel();
}

void JobQueue::drain() {
  UniqueLock Guard(M);
  CV.wait(Guard.native(), [this] { return drainedPred(); });
}
