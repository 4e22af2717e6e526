//===- tests/engine/ShedStressTest.cpp ------------------------------------===//
//
// Seeded randomized stress for deadline-aware shedding under ManualClock:
// mixed-priority jobs with random residency budgets are submitted while
// the test pumps virtual time in random ticks. Two invariants must hold
// for EVERY schedule the workers and the pump race into:
//
//   1. No job ever runs past its submit-anchored residency budget: a job
//      that executed at all completes within its SLA plus a small tick
//      slop (the unsolvable jobs carry execution budgets far larger than
//      any SLA, so a missing clamp or a missed expiry would blow the
//      bound by an order of magnitude — the invariant has teeth).
//   2. The verdict counters exactly partition submissions: every job is
//      shed on arrival, rejected at the high-water mark, or completed —
//      and the per-result tallies match the engine counters one for one.
//
// The submission schedule is fixed by the seed; assertions are invariants
// rather than golden outputs. The pump never outruns the workers: after
// each advance it waits until every executing worker has read the clock
// at the new time, so a search sees each tick at its next clock read and
// invariant 1 measures the SLA clamp, not the pump's speed relative to a
// worker between two deadline polls.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "regex/Parser.h"
#include "support/Clock.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

using namespace regel;
using namespace regel::engine;

namespace {

constexpr int64_t MaxTickMs = 30;   ///< largest single clock advance
constexpr double SlopMs = 500.0;    ///< schedule slack on invariant 1
constexpr int64_t ChurnBudgetMs = 2000; ///< >> any SLA + slop (see header)
constexpr double PaceCapMs = 2000.0; ///< real-time bound on one pacing wait

Priority randomPriority(Rng &R) {
  switch (R.nextBelow(3)) {
  case 0:
    return Priority::Interactive;
  case 1:
    return Priority::Batch;
  default:
    return Priority::Background;
  }
}

} // namespace

TEST(ShedStress, InvariantsHoldUnderRandomMixedLoad) {
  auto MC = std::make_shared<ManualClock>();
  EngineConfig EC;
  EC.Threads = 2;
  EC.CacheShards = 8;
  EC.TimeSource = MC;
  EC.MaxQueueDepth = 8; // small: the high-water path must fire too
  Engine Eng(EC);

  Rng R(0x5eed5eed);
  const RegexPtr Probe = parseRegex("Concat(<cap>,Repeat(<num>,2))");

  struct Submitted {
    JobPtr J;
    int64_t SlaMs;
  };
  std::vector<Submitted> Jobs;
  const size_t N = 200;
  Jobs.reserve(N);
  auto Unfinished = [&] {
    size_t Open = 0;
    for (const Submitted &S : Jobs)
      if (!S.J->done())
        ++Open;
    return Open;
  };
  // One pump step: advance, sweep like the event loop's timer, then wait
  // until the workers caught up. The pool is work-conserving, so
  // min(Threads, unfinished jobs) workers are executing, and each must
  // read the clock (a deadline poll, a task start, a completion) before
  // time moves again. The real-time cap only keeps a wedged engine from
  // hanging the test.
  auto Tick = [&](int64_t Ms) {
    MC->advanceMs(Ms);
    Eng.sweepExpiredQueued();
    Stopwatch Real;
    while (MC->readersSinceAdvance() <
               std::min<size_t>(EC.Threads, Unfinished()) &&
           Real.elapsedMs() < PaceCapMs)
      std::this_thread::yield();
  };

  for (size_t I = 0; I < N; ++I) {
    JobRequest Req;
    Req.Pri = randomPriority(R);
    // Half the jobs churn an unsolvable search whose only bounds are the
    // (virtual) execution budget and the SLA clamp; half solve almost
    // instantly — so the estimator sees a real mix of service times.
    if (R.nextBelow(2) == 0) {
      Req.Sketches = {Sketch::unconstrained()};
      Req.E.Pos = {"ab"};
      Req.E.Neg = {"ab"};
      Req.BudgetMs = ChurnBudgetMs;
    } else {
      Req.Sketches = {Sketch::concrete(Probe)};
      Req.E.Pos = {"A12", "Z99"};
      Req.E.Neg = {"12", "a12"};
      Req.BudgetMs = ChurnBudgetMs;
    }
    // 0 = no SLA; otherwise 10..209 virtual ms, always far below the
    // churn budget so the SLA is the binding constraint.
    const int64_t Sla = R.nextBelow(4) == 0
                            ? 0
                            : 10 + static_cast<int64_t>(R.nextBelow(200));
    Req.ResidencyBudgetMs = Sla;
    Jobs.push_back({Eng.submit(std::move(Req)), Sla});
    Tick(static_cast<int64_t>(
        R.nextBelow(static_cast<uint64_t>(MaxTickMs) + 1)));
  }

  // Drain: pump virtual time until every job has a verdict.
  Stopwatch RealCap;
  while (Unfinished() > 0 && RealCap.elapsedMs() < 60000)
    Tick(20);

  uint64_t Shed = 0, Rejected = 0, Completed = 0, Ran = 0, Expired = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const Submitted &S = Jobs[I];
    ASSERT_TRUE(S.J->done()) << "job " << I << " never completed";
    const JobResult Res = *S.J->waitFor(0);

    // Verdicts are mutually exclusive; shed/rejected jobs never ran.
    EXPECT_FALSE(Res.ShedOnArrival && Res.Rejected) << "job " << I;
    if (Res.ShedOnArrival || Res.Rejected) {
      EXPECT_EQ(Res.TasksRun + Res.TasksSkipped, 0u) << "job " << I;
      EXPECT_FALSE(Res.ResidencyExpired) << "job " << I;
      Res.ShedOnArrival ? ++Shed : ++Rejected;
      continue;
    }
    ++Completed;
    if (Res.TasksRun > 0)
      ++Ran;
    if (Res.ResidencyExpired)
      ++Expired;
    // Accepted jobs account every task exactly once.
    EXPECT_EQ(Res.TasksRun + Res.TasksSkipped,
              S.J->request().Sketches.size())
        << "job " << I;
    // Invariant 1: nothing outlives its submit-anchored budget. A job the
    // SLA machinery let run carries a 2000ms execution budget, so any
    // failure to clamp or expire would overshoot the SLA by ~10x the
    // allowed slop.
    if (S.SlaMs > 0)
      EXPECT_LE(Res.TotalMs, static_cast<double>(S.SlaMs) + SlopMs)
          << "job " << I << " ran past its residency budget (sla "
          << S.SlaMs << "ms)";
  }

  // Invariant 2: the verdict counters partition submissions exactly, and
  // the engine's view agrees with the per-result tally.
  StatsSnapshot S = Eng.snapshot();
  EXPECT_EQ(S.JobsSubmitted, N);
  EXPECT_EQ(Shed + Rejected + Completed, N);
  EXPECT_EQ(S.JobsShedOnArrival, Shed);
  EXPECT_EQ(S.JobsRejected, Rejected);
  EXPECT_EQ(S.JobsCompleted, Completed);
  EXPECT_EQ(S.JobsResidencyExpired, Expired);
  EXPECT_LE(S.JobsExpiredInQueue, S.JobsResidencyExpired);
  EXPECT_EQ(Eng.queueDepth(), 0u);
  EXPECT_GE(Ran, 1u) << "stress produced no executions at all";
  // With 200 jobs, SLAs as low as 10ms, and a congested 2-worker pool,
  // deadline pressure must actually have fired somewhere.
  EXPECT_GE(S.JobsShedOnArrival + S.JobsResidencyExpired, 1u);
}
