//===- tests/engine/SheddingTest.cpp --------------------------------------===//
//
// Deadline-aware load shedding on the virtual-clock seam, asserted to the
// millisecond with no sleeps:
//
//   * the service-time estimator itself (EWMA convergence under a step
//     change, cold-start conservatism, per-class isolation);
//   * shed-on-arrival: a job whose ResidencyBudgetMs cannot be met given
//     current estimates completes ShedOnArrival without ever enqueueing;
//   * eager expiry: a queued job whose SLA lapses is expired by the
//     deadline sweep — never handed to a worker — with exact virtual-time
//     accounting (TotalMs equals the advanced ticks, ExecMs is zero).
//
// Queue-state tests run on a zero-worker engine (jobs queue and never
// execute), which together with ManualClock removes every race: the test
// is the only source of time and the only driver of sweeps.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "regex/Parser.h"
#include "support/Clock.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

using namespace regel;
using namespace regel::engine;

namespace {

/// A request with one unconstrained sketch and a residency SLA; on a
/// zero-worker engine it queues forever unless shed or expired.
JobRequest slaRequest(int64_t SlaMs, Priority P = Priority::Interactive) {
  JobRequest R;
  R.Sketches = {Sketch::unconstrained()};
  R.E.Pos = {"ab"};
  R.E.Neg = {"ba"};
  R.BudgetMs = 0;
  R.ResidencyBudgetMs = SlaMs;
  R.Pri = P;
  // Belt: if a non-cancelled queued job is ever drained by the engine
  // destructor (zero-worker tests), its search is bounded by pops, not by
  // the — frozen — virtual clock.
  R.Synth.MaxPops = 20000;
  return R;
}

EngineConfig manualConfig(const std::shared_ptr<ManualClock> &MC,
                          unsigned Threads) {
  EngineConfig EC;
  EC.Threads = Threads;
  EC.CacheShards = 4;
  EC.TimeSource = MC;
  return EC;
}

} // namespace

//===----------------------------------------------------------------------===//
// The estimator in isolation.
//===----------------------------------------------------------------------===//

TEST(ServiceEstimator, ColdStartHasNoEstimate) {
  ServiceTimeEstimator E;
  EXPECT_LT(E.estimateMs(Priority::Interactive), 0.0);
  EXPECT_LT(E.estimateMs(Priority::Batch), 0.0);
  EXPECT_LT(E.estimateMs(Priority::Background), 0.0);
  EXPECT_LT(E.blendedEstimateMs(), 0.0);
  EXPECT_EQ(E.samples(Priority::Interactive), 0u);
}

TEST(ServiceEstimator, FirstSampleSeedsThenEwmaTracks) {
  ServiceTimeEstimator E(/*Alpha=*/0.2);
  E.recordSample(Priority::Interactive, 100.0);
  // First sample seeds outright — no warm-up from zero.
  EXPECT_DOUBLE_EQ(E.estimateMs(Priority::Interactive), 100.0);
  E.recordSample(Priority::Interactive, 50.0);
  EXPECT_DOUBLE_EQ(E.estimateMs(Priority::Interactive),
                   0.2 * 50.0 + 0.8 * 100.0);
}

TEST(ServiceEstimator, ConvergesToStepChangeInServiceTime) {
  ServiceTimeEstimator E(/*Alpha=*/0.2);
  for (int I = 0; I < 50; ++I)
    E.recordSample(Priority::Batch, 10.0);
  EXPECT_NEAR(E.estimateMs(Priority::Batch), 10.0, 1e-9);
  // Service time steps 10ms -> 80ms: the estimate must move monotonically
  // towards the new level and converge within ~1/Alpha samples.
  double Prev = E.estimateMs(Priority::Batch);
  for (int I = 0; I < 30; ++I) {
    E.recordSample(Priority::Batch, 80.0);
    double Cur = E.estimateMs(Priority::Batch);
    EXPECT_GE(Cur, Prev) << "estimate must approach the step monotonically";
    Prev = Cur;
  }
  EXPECT_NEAR(E.estimateMs(Priority::Batch), 80.0, 0.2);
}

TEST(ServiceEstimator, ClassesAreIsolated) {
  ServiceTimeEstimator E;
  for (int I = 0; I < 20; ++I)
    E.recordSample(Priority::Batch, 5000.0); // pathologically slow batch
  EXPECT_GT(E.estimateMs(Priority::Batch), 0.0);
  // Interactive stays cold: batch samples must not leak into it.
  EXPECT_LT(E.estimateMs(Priority::Interactive), 0.0);
  EXPECT_EQ(E.samples(Priority::Interactive), 0u);
  // The blended figure (queue-wait model) does see every sample.
  EXPECT_DOUBLE_EQ(E.blendedEstimateMs(), 5000.0);
}

//===----------------------------------------------------------------------===//
// Shed-on-arrival through the engine, on ManualClock.
//===----------------------------------------------------------------------===//

TEST(ShedOnArrival, UnmeetableBudgetIsShedWithoutEnqueueing) {
  auto MC = std::make_shared<ManualClock>();
  Engine Eng(manualConfig(MC, /*Threads=*/0));
  // Prime: this class's jobs take ~100ms.
  Eng.estimator().recordSample(Priority::Interactive, 100.0);

  JobPtr J = Eng.submit(slaRequest(/*SlaMs=*/50));
  // Shed at submit: already complete, nothing queued, zero virtual time
  // spent.
  EXPECT_TRUE(J->done());
  EXPECT_EQ(Eng.queueDepth(), 0u);
  JobResult R = *J->waitFor(0);
  EXPECT_TRUE(R.ShedOnArrival);
  EXPECT_FALSE(R.Rejected); // distinct verdicts
  EXPECT_FALSE(R.ResidencyExpired);
  EXPECT_EQ(R.TasksRun + R.TasksSkipped, 0u);
  EXPECT_DOUBLE_EQ(R.TotalMs, 0.0); // decided on arrival, not after a wait

  // A meetable budget sails through: estimate 100 < sla 200.
  JobPtr OK = Eng.submit(slaRequest(/*SlaMs=*/200));
  EXPECT_FALSE(OK->done());
  EXPECT_EQ(Eng.queueDepth(), 1u);

  StatsSnapshot S = Eng.snapshot();
  EXPECT_EQ(S.JobsShedOnArrival, 1u);
  EXPECT_EQ(S.JobsRejected, 0u);
  EXPECT_EQ(S.JobsSubmitted, 2u);
  EXPECT_DOUBLE_EQ(S.EstimatorInteractiveMs, 100.0);
  EXPECT_EQ(S.EstimatorSamplesInteractive, 1u);

  Eng.cancelAll(); // the queued job must not search at engine teardown
}

TEST(ShedOnArrival, ColdClassNeverSheds) {
  auto MC = std::make_shared<ManualClock>();
  Engine Eng(manualConfig(MC, /*Threads=*/0));
  // No samples at all: even a 1ms budget is accepted (admission must not
  // shed on a guess).
  JobPtr J = Eng.submit(slaRequest(/*SlaMs=*/1));
  EXPECT_FALSE(J->done());
  EXPECT_EQ(Eng.queueDepth(), 1u);
  EXPECT_EQ(Eng.snapshot().JobsShedOnArrival, 0u);
  Eng.cancelAll();
}

TEST(ShedOnArrival, SlowBatchSamplesDoNotShedInteractiveJobs) {
  auto MC = std::make_shared<ManualClock>();
  Engine Eng(manualConfig(MC, /*Threads=*/0));
  for (int I = 0; I < 10; ++I)
    Eng.estimator().recordSample(Priority::Batch, 5000.0);

  // Interactive is cold: accepted despite the hopeless-looking blend.
  JobPtr I1 = Eng.submit(slaRequest(/*SlaMs=*/10, Priority::Interactive));
  EXPECT_FALSE(I1->done());
  // Batch with the same budget is shed by its own class estimate.
  JobPtr B1 = Eng.submit(slaRequest(/*SlaMs=*/10, Priority::Batch));
  ASSERT_TRUE(B1->done());
  EXPECT_TRUE(B1->waitFor(0)->ShedOnArrival);

  StatsSnapshot S = Eng.snapshot();
  EXPECT_EQ(S.JobsShedOnArrival, 1u);
  Eng.cancelAll();
}

TEST(ShedOnArrival, QueueWaitEstimateContributes) {
  // Zero workers: the backlog is frozen, so the queue-wait term of the
  // shed decision is exactly depth x blended-estimate / max(1, workers).
  auto MC = std::make_shared<ManualClock>();
  Engine Eng(manualConfig(MC, /*Threads=*/0));
  Eng.estimator().recordSample(Priority::Interactive, 40.0);

  // Fill the queue with accepted jobs (sla high enough to pass).
  std::vector<JobPtr> Fill;
  for (int I = 0; I < 3; ++I)
    Fill.push_back(Eng.submit(slaRequest(/*SlaMs=*/100000)));
  ASSERT_EQ(Eng.queueDepth(), 3u);

  // Estimated wait = 3 x 40ms = 120ms, exec = 40ms. A 100ms budget beats
  // the exec estimate alone but not wait + exec: only the queue term can
  // shed it — which is the point.
  JobPtr J = Eng.submit(slaRequest(/*SlaMs=*/100));
  ASSERT_TRUE(J->done());
  EXPECT_TRUE(J->waitFor(0)->ShedOnArrival);

  // With room for wait + exec (200 > 160) the same submission queues.
  JobPtr OK = Eng.submit(slaRequest(/*SlaMs=*/200));
  EXPECT_FALSE(OK->done());

  Eng.cancelAll(); // queued jobs drain (skipped) at engine teardown
}

//===----------------------------------------------------------------------===//
// Eager expiry of queued jobs (the deadline min-heap sweep).
//===----------------------------------------------------------------------===//

TEST(EagerExpiry, QueuedJobExpiresOnSweepNeverHandedToAWorker) {
  auto MC = std::make_shared<ManualClock>();
  Engine Eng(manualConfig(MC, /*Threads=*/0)); // nothing ever executes
  JobRequest R = slaRequest(/*SlaMs=*/50);
  R.Sketches.push_back(Sketch::unconstrained()); // two tasks, both swept
  JobPtr J = Eng.submit(std::move(R));
  EXPECT_FALSE(J->done());
  EXPECT_EQ(Eng.queueDepth(), 1u);

  // One tick short of the SLA: nothing expires.
  MC->advanceMs(49);
  Eng.sweepExpiredQueued();
  EXPECT_FALSE(J->done());

  // The lapsing tick: the next sweep (here: an event loop's timer-driven
  // call; a dispatch or a submit would do the same) expires it
  // immediately.
  MC->advanceMs(1);
  Eng.sweepExpiredQueued();
  ASSERT_TRUE(J->done());

  JobResult Res = *J->waitFor(0);
  EXPECT_TRUE(Res.ResidencyExpired);
  EXPECT_FALSE(Res.ShedOnArrival);
  EXPECT_FALSE(Res.Rejected);
  // Exact-tick accounting: expired at virtual t=50 having never run.
  EXPECT_DOUBLE_EQ(Res.TotalMs, 50.0);
  EXPECT_DOUBLE_EQ(Res.QueueMs, 50.0);
  EXPECT_DOUBLE_EQ(Res.ExecMs, 0.0);
  EXPECT_EQ(Res.TasksRun, 0u);
  EXPECT_EQ(Res.TasksSkipped, 2u); // both tasks accounted, neither ran

  StatsSnapshot S = Eng.snapshot();
  EXPECT_EQ(S.JobsExpiredInQueue, 1u);
  EXPECT_EQ(S.JobsResidencyExpired, 1u);
  EXPECT_EQ(S.JobsCompleted, 1u);
  EXPECT_EQ(S.TasksSkipped, 2u);
  EXPECT_EQ(Eng.queueDepth(), 0u); // its slot was reclaimed
}

TEST(EagerExpiry, SubmitSweepFreesQueueSlotsBeforeAdmission) {
  auto MC = std::make_shared<ManualClock>();
  EngineConfig EC = manualConfig(MC, /*Threads=*/0);
  EC.MaxQueueDepth = 1;
  Engine Eng(EC);

  JobPtr A = Eng.submit(slaRequest(/*SlaMs=*/30));
  EXPECT_EQ(Eng.queueDepth(), 1u);
  // Queue is at the high-water mark, but A's SLA lapses before B arrives:
  // the submit-time sweep must reclaim the slot, so B is admitted rather
  // than rejected.
  MC->advanceMs(30);
  JobPtr B = Eng.submit(slaRequest(/*SlaMs=*/100000));
  EXPECT_TRUE(A->done());
  EXPECT_TRUE(A->waitFor(0)->ResidencyExpired);
  EXPECT_FALSE(B->done()); // admitted, queued
  EXPECT_EQ(Eng.queueDepth(), 1u);
  StatsSnapshot S = Eng.snapshot();
  EXPECT_EQ(S.JobsExpiredInQueue, 1u);
  EXPECT_EQ(S.JobsRejected, 0u);
  Eng.cancelAll();
}

TEST(EagerExpiry, ExpiredJobStillFiresContinuationsExactlyOnce) {
  auto MC = std::make_shared<ManualClock>();
  Engine Eng(manualConfig(MC, /*Threads=*/0));
  JobPtr J = Eng.submit(slaRequest(/*SlaMs=*/10));
  int Calls = 0;
  bool SawExpired = false;
  J->onComplete([&](const JobResult &R) {
    ++Calls;
    SawExpired = R.ResidencyExpired;
  });
  EXPECT_EQ(Calls, 0);
  MC->advanceMs(10);
  Eng.sweepExpiredQueued(); // runs the continuation synchronously
  EXPECT_EQ(Calls, 1);
  EXPECT_TRUE(SawExpired);
  // Registered after completion: runs synchronously, still exactly once.
  J->onComplete([&](const JobResult &) { ++Calls; });
  EXPECT_EQ(Calls, 2);
}

TEST(EagerExpiry, DispatchSweepExpiresLapsedJobBehindARunningOne) {
  // One real worker. Job A churns an unsolvable search whose budget is
  // virtual; B queues behind it with a 50ms SLA. Advancing to 60 expires
  // B (sweep at the next event) while A keeps running to its own budget
  // at 100 — proving the sweep acts on queue order, not completion order.
  auto MC = std::make_shared<ManualClock>();
  Engine Eng(manualConfig(MC, /*Threads=*/1));

  JobRequest A;
  A.Sketches = {Sketch::unconstrained()};
  A.E.Pos = {"ab"};
  A.E.Neg = {"ab"}; // contradiction: only the budget ends it
  A.BudgetMs = 100; // virtual
  JobPtr JobA = Eng.submit(std::move(A));

  JobPtr JobB = Eng.submit(slaRequest(/*SlaMs=*/50));

  // B's SLA lapses at 60 < A's deadline: the timer-driven sweep expires
  // B even though the only worker is still busy with A.
  MC->advanceMs(60);
  Eng.sweepExpiredQueued();
  std::optional<JobResult> RB = JobB->waitFor(/*TimeoutMs=*/0);
  ASSERT_TRUE(RB.has_value());
  EXPECT_TRUE(RB->ResidencyExpired);
  EXPECT_EQ(RB->TasksRun, 0u);
  EXPECT_DOUBLE_EQ(RB->TotalMs, 60.0); // expired at the sweep, exactly
  EXPECT_FALSE(JobA->done()) << "A must still be inside its own budget";

  // Pump virtual time until A's (exec-anchored) budget lapses. The anchor
  // is wherever the worker picked A up, so advance in ticks rather than
  // assuming it started at t=0; the worker's search polls its deadline
  // continuously and stops within a beat of the lapsing tick.
  for (Stopwatch RealCap; !JobA->done() && RealCap.elapsedMs() < 20000;) {
    MC->advanceMs(10);
    std::this_thread::yield();
  }
  ASSERT_TRUE(JobA->done()) << "worker never observed the virtual deadline";
  JobResult RA = JobA->wait();
  EXPECT_TRUE(RA.DeadlineExpired);
  EXPECT_FALSE(RA.solved());

  StatsSnapshot S = Eng.snapshot();
  EXPECT_EQ(S.JobsExpiredInQueue, 1u);
  EXPECT_EQ(S.JobsCompleted, 2u);
}
