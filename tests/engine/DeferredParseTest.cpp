//===- tests/engine/DeferredParseTest.cpp ---------------------------------===//
//
// Jobs whose sketch list comes from a deferred source (the NL parse): the
// engine admits them like any job, runs the source as the job's first task
// on a worker, then fans out one task per sketch. These tests pin the
// lifecycle around that first task: exactly one completion whatever a
// cancel races, no parse for jobs that never got a worker (rejected, shed,
// expired in queue), the parse's time accounted apart from queue and
// execution, and the synthesis budget starting after the parse.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "regex/Parser.h"
#include "support/Clock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

using namespace regel;
using namespace regel::engine;

namespace {

/// What the test sources "parse" into: three concrete sketches, the
/// first of which fits the examples below.
std::vector<SketchPtr> threeSketches() {
  return {Sketch::concrete(parseRegex("Concat(<cap>,Repeat(<num>,2))")),
          Sketch::concrete(parseRegex("Repeat(<num>,3)")),
          Sketch::concrete(parseRegex("Concat(<let>,<num>)"))};
}

JobRequest deferredRequest(std::function<std::vector<SketchPtr>()> Source) {
  JobRequest R;
  R.SketchSource = std::move(Source);
  R.E.Pos = {"A12", "Z99"};
  R.E.Neg = {"12", "a12"};
  R.BudgetMs = 10000;
  return R;
}

/// A source that counts its calls and returns threeSketches().
std::function<std::vector<SketchPtr>()> countingSource(std::atomic<int> &N) {
  return [&N] {
    ++N;
    return threeSketches();
  };
}

/// Lets a test hold a source inside its call: the source reports that it
/// entered, then parks until the test opens the gate.
class Gate {
public:
  void enterAndWait() {
    std::unique_lock<std::mutex> Guard(M);
    Entered = true;
    CV.notify_all();
    CV.wait(Guard, [this] { return Open; });
  }
  void waitEntered() {
    std::unique_lock<std::mutex> Guard(M);
    CV.wait(Guard, [this] { return Entered; });
  }
  void open() {
    std::lock_guard<std::mutex> Guard(M);
    Open = true;
    CV.notify_all();
  }

private:
  std::mutex M;
  std::condition_variable CV;
  bool Entered = false;
  bool Open = false;
};

EngineConfig manualConfig(const std::shared_ptr<ManualClock> &MC,
                          unsigned Threads) {
  EngineConfig EC;
  EC.Threads = Threads;
  EC.CacheShards = 4;
  EC.TimeSource = MC;
  EC.Trace.SampleProb = 1.0;
  return EC;
}

} // namespace

TEST(DeferredParse, SourceRunsOnAWorkerThenFansOut) {
  Engine Eng(EngineConfig{2, 4, nullptr});
  std::atomic<int> Calls{0};
  std::atomic<bool> OnWorker{false};
  JobPtr J = Eng.submit(deferredRequest([&] {
    ++Calls;
    OnWorker = onPoolWorkerThread();
    return threeSketches();
  }));
  const JobResult R = J->wait();
  EXPECT_EQ(Calls.load(), 1);
  EXPECT_TRUE(OnWorker.load()) << "the parse must not run on the submitter";
  ASSERT_TRUE(R.solved());
  EXPECT_EQ(R.Answers[0].SketchRank, 0u);
  ASSERT_EQ(J->request().Sketches.size(), 3u);
  EXPECT_EQ(R.TasksRun + R.TasksSkipped, 3u);
}

TEST(DeferredParse, CancelWhileParseRunsSkipsEverySketchOnce) {
  Gate G;
  std::atomic<int> Completions{0};
  JobPtr J;
  JobResult R;
  {
    Engine Eng(EngineConfig{1, 4, nullptr});
    J = Eng.submit(deferredRequest([&G] {
      G.enterAndWait();
      return threeSketches();
    }));
    J->onComplete([&](const JobResult &) { ++Completions; });
    G.waitEntered();
    J->cancel(); // the parse is running: it finishes, then nothing searches
    G.open();
    R = J->wait();
  } // joining the worker settles the continuation
  EXPECT_EQ(Completions.load(), 1);
  EXPECT_FALSE(R.solved());
  ASSERT_EQ(J->request().Sketches.size(), 3u);
  EXPECT_EQ(R.TasksRun, 0u);
  EXPECT_EQ(R.TasksSkipped, 3u);
}

TEST(DeferredParse, CancelWhileParseQueuedNeverParses) {
  Gate G;
  std::atomic<int> Calls{0}, Completions{0};
  JobPtr Blocker, J;
  JobResult R;
  {
    // One worker, held inside the first job's parse: the second job's
    // parse task waits in the queue, where the cancel reaches it.
    Engine Eng(EngineConfig{1, 4, nullptr});
    Blocker = Eng.submit(deferredRequest([&G] {
      G.enterAndWait();
      return threeSketches();
    }));
    G.waitEntered();
    J = Eng.submit(deferredRequest(countingSource(Calls)));
    J->onComplete([&](const JobResult &) { ++Completions; });
    J->cancel();
    G.open();
    R = J->wait();
    EXPECT_TRUE(Blocker->wait().solved());
  }
  EXPECT_EQ(Calls.load(), 0);
  EXPECT_EQ(Completions.load(), 1);
  EXPECT_TRUE(J->request().Sketches.empty());
  EXPECT_EQ(R.TasksRun + R.TasksSkipped, 0u);
  EXPECT_FALSE(R.solved());
}

TEST(DeferredParse, RejectedShedAndExpiredJobsNeverParse) {
  auto MC = std::make_shared<ManualClock>();
  std::atomic<int> Calls{0};
  {
    // Zero workers: nothing runs until teardown drains the queue, so the
    // queue state is exactly what the submits made it.
    EngineConfig EC = manualConfig(MC, /*Threads=*/0);
    EC.MaxQueueDepth = 1;
    Engine Eng(EC);
    JobPtr Occupant = Eng.submit(deferredRequest(countingSource(Calls)));
    ASSERT_EQ(Eng.queueDepth(), 1u);

    JobPtr Rejected = Eng.submit(deferredRequest(countingSource(Calls)));
    ASSERT_TRUE(Rejected->done());
    EXPECT_TRUE(Rejected->waitFor(0)->Rejected);

    // A warm estimate of 100 ms cannot meet a 50 ms SLA.
    Eng.estimator().recordSample(Priority::Interactive, 100.0);
    JobRequest Hopeless = deferredRequest(countingSource(Calls));
    Hopeless.ResidencyBudgetMs = 50;
    JobPtr Shed = Eng.submit(std::move(Hopeless));
    ASSERT_TRUE(Shed->done());
    EXPECT_TRUE(Shed->waitFor(0)->ShedOnArrival);

    Occupant->cancel(); // drained at teardown without parsing
  }
  {
    Engine Eng(manualConfig(MC, /*Threads=*/0));
    JobRequest R = deferredRequest(countingSource(Calls));
    R.ResidencyBudgetMs = 50;
    JobPtr J = Eng.submit(std::move(R));
    MC->advanceMs(50);
    Eng.sweepExpiredQueued();
    ASSERT_TRUE(J->done());
    const JobResult Res = *J->waitFor(0);
    EXPECT_TRUE(Res.ResidencyExpired);
    EXPECT_EQ(Res.TasksRun + Res.TasksSkipped, 0u);
    EXPECT_EQ(Eng.snapshot().JobsExpiredInQueue, 1u);
  } // teardown runs the expired job's parse task, which must do nothing
  EXPECT_EQ(Calls.load(), 0);
}

TEST(DeferredParse, ParseTimeIsItsOwnPhaseAndTheBudgetStartsAfterIt) {
  // The source takes 500 ms of virtual time against a 100 ms synthesis
  // budget. The budget runs from the first sketch task, so the search
  // still gets it, and the 500 ms land in ParseMs, not in queue or exec.
  auto MC = std::make_shared<ManualClock>();
  std::shared_ptr<obs::Tracer> Tr;
  std::shared_ptr<obs::Registry> Reg;
  JobResult R;
  {
    Engine Eng(manualConfig(MC, /*Threads=*/1));
    Tr = Eng.tracer();
    Reg = Eng.registry();
    JobRequest Req = deferredRequest([&MC] {
      MC->advanceMs(500);
      return threeSketches();
    });
    Req.BudgetMs = 100;
    R = Eng.submit(std::move(Req))->wait();
  }
  ASSERT_TRUE(R.solved());
  EXPECT_FALSE(R.DeadlineExpired);
  EXPECT_DOUBLE_EQ(R.ParseMs, 500.0);
  EXPECT_DOUBLE_EQ(R.QueueMs, 0.0);
  EXPECT_DOUBLE_EQ(R.ExecMs, 0.0);
  EXPECT_DOUBLE_EQ(R.TotalMs, 500.0);

  obs::HistogramSnapshot P = Reg->histogramSnapshot("regel_parse_us", "");
  ASSERT_EQ(P.Count, 1u);
  EXPECT_EQ(P.percentileUs(1.0),
            obs::Histogram::bucketUpperUs(obs::Histogram::bucketFor(500000)));

  ASSERT_NE(R.TraceId, 0u);
  std::shared_ptr<obs::TraceContext> Ctx = Tr->find(R.TraceId);
  ASSERT_NE(Ctx, nullptr);
  bool SawParse = false, SawQueue = false;
  for (const obs::Span &S : Ctx->spansCopy()) {
    if (S.Name == "parse") {
      SawParse = true;
      EXPECT_EQ(S.StartUs, 0);
      EXPECT_EQ(S.DurUs, 500000);
    }
    if (S.Name == "queue") {
      SawQueue = true;
      EXPECT_EQ(S.DurUs, 500000) << "queue spans everything before exec";
    }
  }
  EXPECT_TRUE(SawParse);
  EXPECT_TRUE(SawQueue);
}
