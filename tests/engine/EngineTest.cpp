//===- tests/engine/EngineTest.cpp ----------------------------------------===//
//
// Engine-level behaviour: scheduling-independent determinism against the
// single-threaded driver, cancellation-on-first-success, per-job
// deadlines, and a many-concurrent-jobs stress run.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "automata/Compile.h"
#include "core/Regel.h"
#include "data/DeepRegexSet.h"
#include "regex/Matcher.h"
#include "regex/Parser.h"
#include "sketch/SketchParser.h"

#include "common/TestCorpus.h"

#include <gtest/gtest.h>

#include <thread>

using namespace regel;
using namespace regel::engine;
using regel::tests::CorpusTask;
using regel::tests::corpusTasks;
using regel::tests::deterministicRequest;

namespace {

std::shared_ptr<nlp::SemanticParser> dummyParser() {
  return std::make_shared<nlp::SemanticParser>();
}

} // namespace

TEST(EngineDeterminism, MultiThreadAnswersMatchSingleThreadDriver) {
  std::vector<CorpusTask> Tasks = corpusTasks(16);
  ASSERT_GE(Tasks.size(), 8u) << "corpus should yield enough viable tasks";

  // Reference: the Regel driver on a single-worker engine.
  RegelConfig Cfg;
  Cfg.BudgetMs = 0;
  Cfg.Synth.MaxPops = 3000;
  Cfg.TopK = 2;
  Cfg.Threads = 1;
  Cfg.Deterministic = true;
  Regel Driver(dummyParser(), Cfg);

  // Subject: the engine with several workers, driven directly.
  Engine Eng(EngineConfig{/*Threads=*/4, /*CacheShards=*/8, nullptr});
  std::vector<JobRequest> Requests;
  for (const CorpusTask &T : Tasks)
    Requests.push_back(deterministicRequest(T));
  std::vector<JobResult> EngineResults = Eng.runBatch(std::move(Requests));

  unsigned Solved = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    RegelResult Ref =
        Driver.synthesizeFromSketches(Tasks[I].Sketches, Tasks[I].E);
    const JobResult &Got = EngineResults[I];
    ASSERT_EQ(Ref.Answers.size(), Got.Answers.size()) << "task " << I;
    for (size_t A = 0; A < Ref.Answers.size(); ++A) {
      EXPECT_TRUE(
          regexEquals(Ref.Answers[A].Regex, Got.Answers[A].Regex))
          << "task " << I << " answer " << A;
      EXPECT_EQ(Ref.Answers[A].SketchRank, Got.Answers[A].SketchRank)
          << "task " << I << " answer " << A;
    }
    if (Got.solved())
      ++Solved;
  }
  // The component-hole sketch admits the ground truth, so nearly every
  // task should solve; require a solid majority so the comparison above
  // is not vacuous.
  EXPECT_GE(Solved, Tasks.size() / 2);
}

TEST(EngineDeterminism, RepeatedRunsAreStable) {
  std::vector<CorpusTask> Tasks = corpusTasks(6);
  ASSERT_FALSE(Tasks.empty());
  Engine Eng(EngineConfig{3, 8, nullptr});
  std::vector<JobRequest> A, B;
  for (const CorpusTask &T : Tasks) {
    A.push_back(deterministicRequest(T));
    B.push_back(deterministicRequest(T));
  }
  // Second round runs against warm cross-run caches; answers must not
  // change (cache transparency).
  std::vector<JobResult> R1 = Eng.runBatch(std::move(A));
  std::vector<JobResult> R2 = Eng.runBatch(std::move(B));
  ASSERT_EQ(R1.size(), R2.size());
  for (size_t I = 0; I < R1.size(); ++I) {
    ASSERT_EQ(R1[I].Answers.size(), R2[I].Answers.size()) << "task " << I;
    for (size_t J = 0; J < R1[I].Answers.size(); ++J)
      EXPECT_TRUE(
          regexEquals(R1[I].Answers[J].Regex, R2[I].Answers[J].Regex));
  }
  StatsSnapshot S = Eng.snapshot();
  EXPECT_GT(S.ApproxStoreHits, 0u)
      << "second round should hit the cross-run caches";
}

TEST(EngineStats, CounterPartitionsReconcileWithStores) {
  // A fresh engine owns fresh caches, so the run-level counters and the
  // store-level counters must reconcile exactly — no phantom entries, no
  // phantom solves.
  std::vector<CorpusTask> Tasks = corpusTasks(8);
  ASSERT_FALSE(Tasks.empty());
  Engine Eng(EngineConfig{3, 8, nullptr});
  std::vector<JobRequest> A, B;
  for (const CorpusTask &T : Tasks) {
    A.push_back(deterministicRequest(T));
    B.push_back(deterministicRequest(T));
  }
  Eng.runBatch(std::move(A));
  const StatsSnapshot Cold = Eng.snapshot();

  // Approximation store: every entry was published after a miss (two
  // workers may miss the same key before either publishes, so entries
  // never exceed misses), and an unbounded store never evicts.
  ASSERT_GT(Cold.ApproxStoreMisses, 0u);
  EXPECT_LE(Cold.ApproxStoreSize, Cold.ApproxStoreMisses);
  EXPECT_EQ(Cold.ApproxStoreEvictions, 0u);

  // SMT accounting partitions the same way: every solve was a verdict-
  // store miss and every cache hit a store answer.
  ASSERT_GT(Cold.SmtSolves, 0u);
  EXPECT_EQ(Cold.SmtSolves, Cold.SmtStoreMisses);
  EXPECT_EQ(Cold.SmtCacheHits, Cold.SmtStoreHits);

  // The warm pass repeats the same deterministic searches, so its
  // satisfiability checks are answered from the verdict store: strictly
  // fewer new solves than the cold pass, and the partition still holds.
  Eng.runBatch(std::move(B));
  const StatsSnapshot Warm = Eng.snapshot();
  const uint64_t WarmSolves = Warm.SmtSolves - Cold.SmtSolves;
  const uint64_t WarmHits = Warm.SmtCacheHits - Cold.SmtCacheHits;
  EXPECT_LT(WarmSolves, Cold.SmtSolves);
  EXPECT_GT(WarmHits, 0u);
  // The warm searches consult exactly the approximations the cold ones
  // published: every lookup hits, and nothing new is stored.
  EXPECT_EQ(Warm.ApproxStoreMisses, Cold.ApproxStoreMisses);
  EXPECT_EQ(Warm.ApproxStoreSize, Cold.ApproxStoreSize);
  EXPECT_GT(Warm.ApproxStoreHits, Cold.ApproxStoreHits);
  EXPECT_EQ(Warm.SmtSolves, Warm.SmtStoreMisses);
  EXPECT_EQ(Warm.SmtCacheHits, Warm.SmtStoreHits);
}

TEST(EngineStats, SmtMemoOffDetachesVerdictStore) {
  std::vector<CorpusTask> Tasks = corpusTasks(4);
  ASSERT_FALSE(Tasks.empty());
  EngineConfig C;
  C.Threads = 2;
  C.SmtMemo = false;
  Engine Eng(std::move(C));
  std::vector<JobRequest> A;
  for (const CorpusTask &T : Tasks)
    A.push_back(deterministicRequest(T));
  std::vector<JobResult> R = Eng.runBatch(std::move(A));
  const StatsSnapshot S = Eng.snapshot();
  // Solving still happened, but nothing touched the verdict store.
  EXPECT_GT(S.SmtSolves, 0u);
  EXPECT_EQ(S.SmtCacheHits, 0u);
  EXPECT_EQ(S.SmtStoreHits, 0u);
  EXPECT_EQ(S.SmtStoreMisses, 0u);
  EXPECT_EQ(S.SmtStoreSize, 0u);
}

TEST(EngineCancellation, FirstSolutionSkipsQueuedSiblings) {
  // One worker: the rank-0 task solves instantly (concrete sketch), so
  // every sibling task must be skipped without running a search.
  Engine Eng(EngineConfig{1, 4, nullptr});
  Examples E;
  E.Pos = {"A12", "Z99"};
  E.Neg = {"12", "A1", "a12"};
  RegexPtr Solution = parseRegex("Concat(<cap>,Repeat(<num>,2))");
  JobRequest R;
  R.Sketches.push_back(Sketch::concrete(Solution));
  for (int I = 0; I < 5; ++I)
    R.Sketches.push_back(Sketch::unconstrained());
  R.E = E;
  R.TopK = 1;
  R.BudgetMs = 60000;
  JobPtr J = Eng.submit(std::move(R));
  const JobResult &Result = J->wait();

  ASSERT_TRUE(Result.solved());
  EXPECT_TRUE(regexEquals(Result.Answers[0].Regex, Solution));
  EXPECT_EQ(Result.Answers[0].SketchRank, 0u);
  EXPECT_EQ(Result.TasksRun, 1u);
  EXPECT_EQ(Result.TasksSkipped, 5u);
  EXPECT_EQ(Result.TasksStopped, 0u);
  StatsSnapshot S = Eng.snapshot();
  EXPECT_EQ(S.TasksSkipped, 5u);
  EXPECT_EQ(S.JobsCompleted, 1u);
}

TEST(EngineCancellation, FirstSolutionStopsRunningSibling) {
  // Two workers: a hard unconstrained search starts alongside the instant
  // concrete solve and must be stopped mid-search by the cancel flag long
  // before its 30s per-sketch slice is up.
  Engine Eng(EngineConfig{2, 4, nullptr});
  Examples E;
  E.Pos = {"ab12cd", "xy34zt"};
  E.Neg = {"ab12", "1234", "abcd", "x1y2z3"};
  RegexPtr Solution = parseRegex(
      "Concat(Repeat(<low>,2),Concat(Repeat(<num>,2),Repeat(<low>,2)))");
  ASSERT_TRUE(matchesDirect(Solution, "ab12cd"));
  JobRequest R;
  R.Sketches = {Sketch::concrete(Solution), Sketch::unconstrained()};
  R.E = E;
  R.TopK = 1;
  R.BudgetMs = 60000;
  Stopwatch Watch;
  JobPtr J = Eng.submit(std::move(R));
  const JobResult &Result = J->wait();

  ASSERT_TRUE(Result.solved());
  EXPECT_GE(Result.TasksSkipped + Result.TasksStopped, 1u);
  // Generous bound: far below the 30s the sibling would otherwise use.
  EXPECT_LT(Watch.elapsedMs(), 15000.0);
}

TEST(EngineDeadline, ExpiredJobReportsIt) {
  // One worker, four tasks, contradictory examples (no consistent regex
  // exists, so only the deadline can end the job): the first task eats
  // the whole job budget, so the trailing tasks are deterministically
  // skipped on the deadline path. The 200ms budget is VIRTUAL — the test
  // pumps a ManualClock in ticks instead of burning 200 real ms, and the
  // worker's search observes the lapsing tick at its next deadline poll.
  auto MC = std::make_shared<ManualClock>();
  EngineConfig EC{1, 4, nullptr};
  EC.TimeSource = MC;
  Engine Eng(EC);
  Examples E;
  E.Pos = {"ab"};
  E.Neg = {"ab"};
  JobRequest R;
  for (int I = 0; I < 4; ++I)
    R.Sketches.push_back(Sketch::unconstrained());
  R.E = E;
  R.BudgetMs = 200;
  JobPtr J = Eng.submit(std::move(R));
  for (Stopwatch RealCap; !J->done() && RealCap.elapsedMs() < 20000;) {
    MC->advanceMs(10);
    std::this_thread::yield();
  }
  ASSERT_TRUE(J->done()) << "search never observed the virtual deadline";
  const JobResult &Result = J->wait();
  EXPECT_FALSE(Result.solved());
  EXPECT_TRUE(Result.DeadlineExpired);
  // Run/skipped partition the sketch list exactly — this is what the old
  // TasksCancelled counter (which also counted mid-run stops) could not
  // guarantee.
  EXPECT_EQ(Result.TasksRun + Result.TasksSkipped, 4u);
  EXPECT_LE(Result.TasksStopped, Result.TasksRun);
  // Exec time is virtual and at least the budget: the job ended because
  // 200 virtual ms elapsed, not because of any real-time margin.
  EXPECT_GE(Result.ExecMs, 200.0);
}

TEST(EngineStress, ManyConcurrentJobsFromManyClients) {
  Engine Eng(EngineConfig{4, 16, nullptr});
  Examples E;
  E.Pos = {"12", "47"};
  E.Neg = {"1", "123", "ab"};

  const int Clients = 4, JobsPerClient = 10;
  std::atomic<int> SolvedCount{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&Eng, &E, &SolvedCount] {
      for (int I = 0; I < JobsPerClient; ++I) {
        JobRequest R;
        R.Sketches = {parseSketch("hole{Repeat(<num>,2)}"),
                      Sketch::unconstrained()};
        R.E = E;
        R.TopK = 1;
        R.BudgetMs = 20000;
        const JobResult &Result = Eng.submit(std::move(R))->wait();
        if (Result.solved() &&
            matchesDirect(Result.Answers[0].Regex, "55") &&
            !matchesDirect(Result.Answers[0].Regex, "555"))
          ++SolvedCount;
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(SolvedCount.load(), Clients * JobsPerClient);
  StatsSnapshot S = Eng.snapshot();
  EXPECT_EQ(S.JobsSubmitted, static_cast<uint64_t>(Clients * JobsPerClient));
  EXPECT_EQ(S.JobsCompleted, S.JobsSubmitted);
  EXPECT_EQ(S.JobsSolved, S.JobsSubmitted);
  EXPECT_EQ(Eng.queueDepth(), 0u);
  // Every per-sketch task is accounted for exactly once: it either ran a
  // search or was skipped. Two sketches per job, so the partition must add
  // up to exactly the fanned-out task count; mid-run stops are a subset of
  // the runs, not a second count.
  EXPECT_EQ(S.TasksRun + S.TasksSkipped,
            static_cast<uint64_t>(Clients * JobsPerClient * 2));
  EXPECT_LE(S.TasksStopped, S.TasksRun);

  // Whether the stress jobs' unconstrained tasks built approximations
  // before the first answer cancelled them is a race. A job submitted
  // after an identical one has completed is not: it looks up exactly the
  // approximations the first one stored, so the memo must serve it.
  auto OpenJob = [&E] {
    JobRequest R;
    R.Sketches = {Sketch::unconstrained()};
    R.E = E;
    R.TopK = 1;
    R.BudgetMs = 20000;
    return R;
  };
  ASSERT_TRUE(Eng.submit(OpenJob())->wait().solved());
  const uint64_t HitsBefore = Eng.snapshot().ApproxStoreHits;
  ASSERT_TRUE(Eng.submit(OpenJob())->wait().solved());
  EXPECT_GT(Eng.snapshot().ApproxStoreHits, HitsBefore);
}

TEST(EngineAnswers, DedupKeysOnFullIdentityNotHash) {
  // Every answer collides under a constant hash. A set keyed by the hash
  // alone would drop the second regex as a duplicate of the first; keyed
  // by the regex itself, distinct answers stay distinct and only a
  // structurally equal one (a distinct object) is a duplicate.
  AnswerSet Seen(0, AnswerHash{[](const RegexPtr &) -> size_t { return 42; }});
  EXPECT_TRUE(Seen.insert(parseRegex("Repeat(<num>,2)")).second);
  EXPECT_TRUE(Seen.insert(parseRegex("Repeat(<let>,2)")).second);
  EXPECT_FALSE(Seen.insert(parseRegex("Repeat(<num>,2)")).second);
  EXPECT_EQ(Seen.size(), 2u);
}

TEST(EngineEviction, TinyCacheCapsLeaveDeterministicResultsUnchanged) {
  std::vector<CorpusTask> Tasks = corpusTasks(6);
  ASSERT_FALSE(Tasks.empty());

  EngineConfig Unbounded{2, 4, nullptr, {}, {}, 0};
  EngineConfig Tiny{2, 4, nullptr, {}, {}, 0};
  Tiny.ApproxCacheLimits.MaxEntries = 8; // pathologically small: churn
  Engine EngU(Unbounded), EngT(Tiny);

  std::vector<JobRequest> A, B;
  for (const CorpusTask &T : Tasks) {
    A.push_back(deterministicRequest(T));
    B.push_back(deterministicRequest(T));
  }
  std::vector<JobResult> RU = EngU.runBatch(std::move(A));
  std::vector<JobResult> RT = EngT.runBatch(std::move(B));
  ASSERT_EQ(RU.size(), RT.size());
  for (size_t I = 0; I < RU.size(); ++I) {
    ASSERT_EQ(RU[I].Answers.size(), RT[I].Answers.size()) << "task " << I;
    for (size_t J = 0; J < RU[I].Answers.size(); ++J)
      EXPECT_TRUE(
          regexEquals(RU[I].Answers[J].Regex, RT[I].Answers[J].Regex));
  }
  StatsSnapshot S = EngT.snapshot();
  EXPECT_LE(S.ApproxStoreSize, 8u);
  // With six multi-sketch jobs against an 8-entry cap, eviction must have
  // actually happened for the equality above to mean anything.
  EXPECT_GT(S.ApproxStoreEvictions, 0u);
}

TEST(EngineAdmission, RejectsAtHighWaterMark) {
  EngineConfig EC{1, 4, nullptr, {}, {}, 0};
  EC.MaxQueueDepth = 2;
  Engine Eng(EC);

  // Two unsolvable jobs occupy the single worker and the queue up to the
  // high-water mark...
  Examples Contradiction;
  Contradiction.Pos = {"ab"};
  Contradiction.Neg = {"ab"};
  std::vector<JobPtr> Busy;
  for (int I = 0; I < 2; ++I) {
    JobRequest R;
    R.Sketches = {Sketch::unconstrained()};
    R.E = Contradiction;
    R.BudgetMs = 10000;
    Busy.push_back(Eng.submit(std::move(R)));
  }
  EXPECT_EQ(Eng.queueDepth(), 2u);

  // ...so the third submission must be shed immediately, not queued.
  JobRequest R;
  R.Sketches = {Sketch::unconstrained()};
  R.E = Contradiction;
  R.BudgetMs = 10000;
  Stopwatch Watch;
  JobPtr Shed = Eng.submit(std::move(R));
  JobResult Result = Shed->wait();
  EXPECT_TRUE(Result.Rejected);
  EXPECT_FALSE(Result.solved());
  EXPECT_EQ(Result.TasksRun + Result.TasksSkipped, 0u);
  EXPECT_LT(Watch.elapsedMs(), 1000.0); // never waited on the queue

  StatsSnapshot S = Eng.snapshot();
  EXPECT_EQ(S.JobsRejected, 1u);
  EXPECT_EQ(S.JobsSubmitted, 3u);

  Eng.cancelAll();
  for (const JobPtr &J : Busy)
    J->wait();
  // With the queue drained, submissions are accepted again.
  JobRequest R2;
  R2.Sketches = {Sketch::unconstrained()};
  R2.E = Contradiction;
  R2.BudgetMs = 1; // expires immediately; we only care about admission
  EXPECT_FALSE(Eng.submit(std::move(R2))->wait().Rejected);
}

TEST(EngineAdmission, HighWaterMarkHoldsUnderConcurrentSubmitters) {
  // The check and the enqueue are one critical section (JobQueue::tryAdd),
  // so racing clients cannot overshoot the mark the way a read-then-add
  // admission check would let them.
  EngineConfig EC{2, 4, nullptr, {}, {}, 0};
  EC.MaxQueueDepth = 4;
  Engine Eng(EC);
  Examples Contradiction;
  Contradiction.Pos = {"ab"};
  Contradiction.Neg = {"ab"};

  std::atomic<int> Accepted{0}, Rejected{0};
  std::vector<JobPtr> Jobs(24);
  std::vector<std::thread> Clients;
  for (int C = 0; C < 8; ++C)
    Clients.emplace_back([&, C] {
      for (int I = 0; I < 3; ++I) {
        JobRequest R;
        R.Sketches = {Sketch::unconstrained()};
        R.E = Contradiction;
        R.BudgetMs = 10000;
        JobPtr J = Eng.submit(std::move(R));
        Jobs[static_cast<size_t>(C * 3 + I)] = J;
        // Rejected jobs are complete the moment submit returns; accepted
        // ones burn their 10s budget on the contradiction, far past the
        // end of this loop.
        if (J->done() && J->wait().Rejected)
          ++Rejected;
        else
          ++Accepted;
        EXPECT_LE(Eng.queueDepth(), 4u);
      }
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_LE(Eng.queueDepth(), 4u);
  EXPECT_EQ(Accepted.load() + Rejected.load(), 24);
  // Nothing completes during the loop, so admissions can never exceed the
  // mark no matter how the 8 clients interleave.
  EXPECT_LE(Accepted.load(), 4);
  EXPECT_GE(Rejected.load(), 20);

  Eng.cancelAll();
  for (const JobPtr &J : Jobs)
    if (J)
      J->wait();
}

TEST(EngineAdmission, ResidencyBudgetExpiresQueuedJob) {
  // One worker. Job A burns 500 VIRTUAL ms of execution on a
  // contradiction; job B sits in the queue behind it with a 50ms
  // submit-anchored SLA, so B's residency lapses while A still runs and
  // the deadline sweep expires B without ever handing it to the worker.
  // Pumping a ManualClock replaces the old half-second of real waiting.
  auto MC = std::make_shared<ManualClock>();
  EngineConfig EC{1, 4, nullptr, {}, {}, 0};
  EC.TimeSource = MC;
  Engine Eng(EC);
  Examples Contradiction;
  Contradiction.Pos = {"ab"};
  Contradiction.Neg = {"ab"};

  JobRequest A;
  A.Sketches = {Sketch::unconstrained()};
  A.E = Contradiction;
  A.BudgetMs = 500;
  JobPtr JobA = Eng.submit(std::move(A));

  JobRequest B;
  B.Sketches = {Sketch::unconstrained(), Sketch::unconstrained()};
  B.E = Contradiction;
  B.BudgetMs = 10000; // plenty of execution budget; residency is the bound
  B.ResidencyBudgetMs = 50;
  JobPtr JobB = Eng.submit(std::move(B));

  for (Stopwatch RealCap;
       !(JobA->done() && JobB->done()) && RealCap.elapsedMs() < 20000;) {
    MC->advanceMs(10);
    std::this_thread::yield();
  }
  ASSERT_TRUE(JobB->done());
  ASSERT_TRUE(JobA->done());
  JobResult ResultB = JobB->wait();
  JobA->wait();
  EXPECT_FALSE(ResultB.solved());
  EXPECT_TRUE(ResultB.ResidencyExpired);
  EXPECT_FALSE(ResultB.Rejected);
  EXPECT_EQ(ResultB.TasksRun, 0u);
  EXPECT_EQ(ResultB.TasksSkipped, 2u);
  EXPECT_GE(ResultB.TotalMs, 50.0);

  StatsSnapshot S = Eng.snapshot();
  EXPECT_EQ(S.JobsResidencyExpired, 1u);
  EXPECT_EQ(S.JobsCompleted, 2u);
}

TEST(EngineRegression, NestedRepeatRangeHoleCompletes) {
  // DeepRegex seed 0x2, task dr-26: a parser sketch whose hole nests two
  // RepeatRange operators. Its approximation regexes once sent the
  // feasibility check into a DFA construction that never finished; the
  // direct matcher answers them in microseconds. The job runs that
  // sketch next to the task's gold sketch, deterministically under a pop
  // cap, and must complete with an answer consistent with the examples.
  data::Benchmark Task;
  for (const data::Benchmark &B : data::deepRegexSet(26, 0x2))
    if (B.Id == "dr-26")
      Task = B;
  ASSERT_TRUE(Task.GoldSketch) << "dr-26 missing from deepRegexSet(26, 0x2)";

  JobRequest R;
  R.Sketches = {parseSketch("hole{RepeatRange(RepeatRange(<hex>,4,7),2,4)}"),
                Task.GoldSketch};
  ASSERT_TRUE(R.Sketches[0]);
  R.E = Task.Initial;
  R.TopK = 1;
  R.BudgetMs = 0;
  R.Synth.MaxPops = 200;
  R.Deterministic = true;

  Engine Eng(EngineConfig{2, 4, nullptr});
  JobPtr J = Eng.submit(std::move(R));
  std::optional<JobResult> Res = J->waitFor(60000);
  if (!Res)
    J->cancel();
  ASSERT_TRUE(Res.has_value()) << "dr-26 did not complete within 60 s";
  ASSERT_TRUE(Res->solved());
  for (const auto &A : Res->Answers) {
    Dfa D = compileRegex(A.Regex);
    for (const std::string &S : Task.Initial.Pos)
      EXPECT_TRUE(D.matches(S)) << S;
    for (const std::string &S : Task.Initial.Neg)
      EXPECT_FALSE(D.matches(S)) << S;
  }
}

TEST(EngineBatch, RegelBatchApiMatchesSequentialCalls) {
  RegelConfig Cfg;
  Cfg.BudgetMs = 0;
  Cfg.Synth.MaxPops = 2000;
  Cfg.NumSketches = 6;
  Cfg.Deterministic = true;
  Cfg.Threads = 2;
  auto Parser = dummyParser();
  Regel Tool(Parser, Cfg);

  std::vector<RegelQuery> Queries = {
      {"a capital letter followed by 2 digits",
       {{"A12", "Z99"}, {"12", "A1", "a12"}}},
      {"qwerty asdf zxcv", {{"11", "22"}, {"1", "111"}}},
  };
  std::vector<RegelResult> Batch = Tool.synthesizeBatch(Queries);
  ASSERT_EQ(Batch.size(), Queries.size());
  for (size_t I = 0; I < Queries.size(); ++I) {
    RegelResult Seq = Tool.synthesize(Queries[I].Description, Queries[I].E);
    ASSERT_EQ(Seq.Answers.size(), Batch[I].Answers.size()) << "query " << I;
    for (size_t A = 0; A < Seq.Answers.size(); ++A)
      EXPECT_TRUE(
          regexEquals(Seq.Answers[A].Regex, Batch[I].Answers[A].Regex));
  }
}
