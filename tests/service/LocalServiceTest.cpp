//===- tests/service/LocalServiceTest.cpp ---------------------------------===//
//
// The ticket-based service over one engine: exactly-once completion
// delivery (including jobs that finish at submit — rejected at the
// queue-depth high-water mark, shed on arrival, empty), cancel's return
// contract, concurrent submitters racing one poller, one polling thread
// driving many in-flight tickets, two services sharing one engine,
// completions landing after the service died, and answer identity with
// direct Engine::submit on TestCorpus tasks under deterministic mode.
//
//===----------------------------------------------------------------------===//

#include "service/LocalService.h"

#include "regex/Parser.h"
#include "support/Clock.h"
#include "support/Timer.h"

#include "common/TestCorpus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

using namespace regel;
using namespace regel::service;
using namespace regel::tests;

namespace {

/// A request that queues forever on a zero-worker engine unless shed,
/// rejected or expired by its residency SLA.
engine::JobRequest slaRequest(int64_t SlaMs) {
  engine::JobRequest R;
  R.Sketches = {Sketch::unconstrained()};
  R.E.Pos = {"ab"};
  R.E.Neg = {"ba"};
  R.ResidencyBudgetMs = SlaMs;
  // Bounds the search if the engine destructor ever drains it inline.
  R.Synth.MaxPops = 20000;
  return R;
}

/// A zero-worker engine on a manual clock: nothing executes, so only
/// submit-time verdicts and SLA sweeps complete jobs.
std::shared_ptr<engine::Engine>
frozenEngine(const std::shared_ptr<ManualClock> &MC, size_t MaxQueueDepth) {
  engine::EngineConfig EC;
  EC.Threads = 0;
  EC.CacheShards = 4;
  EC.TimeSource = MC;
  EC.MaxQueueDepth = MaxQueueDepth;
  return std::make_shared<engine::Engine>(EC);
}

/// A request whose concrete sketch \p Regex is its one answer, found in
/// about a millisecond.
engine::JobRequest concreteRequest(const char *Regex,
                                   std::vector<std::string> Pos,
                                   std::vector<std::string> Neg) {
  engine::JobRequest R;
  R.Sketches = {Sketch::concrete(parseRegex(Regex))};
  R.E.Pos = std::move(Pos);
  R.E.Neg = std::move(Neg);
  R.BudgetMs = 8000;
  return R;
}

/// Collects completions from \p Svc until \p N arrived or 30 s of real
/// time passed.
std::vector<Completion> collect(LocalService &Svc, size_t N) {
  std::vector<Completion> Out;
  Stopwatch W;
  while (Out.size() < N && W.elapsedMs() < 30000) {
    for (Completion &C : Svc.pollCompleted())
      Out.push_back(std::move(C));
    if (Out.size() < N)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Out;
}

} // namespace

TEST(LocalService, EveryTicketCompletesExactlyOnceIncludingSubmitVerdicts) {
  auto MC = std::make_shared<ManualClock>();
  auto Eng = frozenEngine(MC, /*MaxQueueDepth=*/1);
  LocalService Svc(Eng);
  // Interactive jobs take ~100 ms: a 50 ms SLA is hopeless on arrival.
  Eng->estimator().recordSample(engine::Priority::Interactive, 100.0);

  const Ticket Queued = Svc.submit(slaRequest(/*SlaMs=*/1000));
  const Ticket Rejected = Svc.submit(slaRequest(/*SlaMs=*/100000));
  const Ticket Shed = Svc.submit(slaRequest(/*SlaMs=*/50));
  engine::JobRequest NoSketches = slaRequest(/*SlaMs=*/0);
  NoSketches.Sketches.clear();
  const Ticket Empty = Svc.submit(std::move(NoSketches));
  EXPECT_EQ(std::set<Ticket>({Queued, Rejected, Shed, Empty}).size(), 4u);
  EXPECT_EQ(Svc.health().QueueDepth, 1u);

  // The submit-time verdicts are deliverable at once, each exactly once.
  std::map<Ticket, engine::JobResult> Results;
  for (Completion &C : Svc.pollCompleted()) {
    EXPECT_FALSE(Results.count(C.Id)) << "ticket " << C.Id << " twice";
    Results[C.Id] = std::move(C.Result);
  }
  ASSERT_EQ(Results.size(), 3u);
  ASSERT_TRUE(Results.count(Rejected));
  ASSERT_TRUE(Results.count(Shed));
  ASSERT_TRUE(Results.count(Empty));
  EXPECT_TRUE(Results[Rejected].Rejected);
  EXPECT_FALSE(Results[Rejected].ShedOnArrival);
  EXPECT_TRUE(Results[Shed].ShedOnArrival);
  EXPECT_FALSE(Results[Shed].Rejected);
  // Nothing to search: no verdict flag, no tasks, no answers.
  EXPECT_FALSE(Results[Empty].Rejected || Results[Empty].ShedOnArrival ||
               Results[Empty].ResidencyExpired);
  EXPECT_EQ(Results[Empty].TasksRun + Results[Empty].TasksSkipped, 0u);
  EXPECT_FALSE(Results[Empty].solved());

  // The queued job completes when its SLA lapses — once.
  EXPECT_TRUE(Svc.pollCompleted().empty());
  MC->advanceMs(1000);
  std::vector<Completion> Late = Svc.pollCompleted();
  ASSERT_EQ(Late.size(), 1u);
  EXPECT_EQ(Late[0].Id, Queued);
  EXPECT_TRUE(Late[0].Result.ResidencyExpired);
  EXPECT_TRUE(Svc.pollCompleted().empty());
  EXPECT_EQ(Svc.health().QueueDepth, 0u);
}

TEST(LocalService, CancelIsFalseForUnknownAndDeliveredTickets) {
  auto MC = std::make_shared<ManualClock>();
  LocalService Svc(frozenEngine(MC, /*MaxQueueDepth=*/0));

  EXPECT_FALSE(Svc.cancel(0)) << "0 is never a ticket";
  EXPECT_FALSE(Svc.cancel(12345)) << "never issued";

  const Ticket T = Svc.submit(slaRequest(/*SlaMs=*/10));
  EXPECT_TRUE(Svc.cancel(T)) << "in flight";
  MC->advanceMs(10);
  std::vector<Completion> Done = Svc.pollCompleted();
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_EQ(Done[0].Id, T);
  EXPECT_FALSE(Svc.cancel(T)) << "completion already delivered";
  EXPECT_TRUE(Svc.pollCompleted().empty());
}

TEST(LocalService, ConcurrentSubmittersAndOnePollerDeliverEveryTicketOnce) {
  engine::EngineConfig EC;
  EC.Threads = 2;
  EC.CacheShards = 4;
  // A low high-water mark makes submits complete inside Engine::submit
  // (rejected), as empty-sketch jobs always do: their continuation runs
  // inside LocalService::submit, racing the poller.
  EC.MaxQueueDepth = 4;
  LocalService Svc(std::make_shared<engine::Engine>(EC));

  RegexPtr Probe = parseRegex("Concat(<cap>,Repeat(<num>,2))");
  ASSERT_TRUE(Probe);
  // Fresh threads every round: the race is likeliest while they spin up,
  // so many short rounds hit it far more often than one long round.
  constexpr unsigned Rounds = 20, Submitters = 4, PerSubmitter = 24;
  constexpr size_t Total = Submitters * PerSubmitter;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    std::vector<Completion> Done;
    std::thread Poller([&] { Done = collect(Svc, Total); });
    std::vector<std::vector<Ticket>> Issued(Submitters);
    std::vector<std::thread> Threads;
    for (unsigned S = 0; S < Submitters; ++S)
      Threads.emplace_back([&, S] {
        for (unsigned I = 0; I < PerSubmitter; ++I) {
          engine::JobRequest R;
          if (I % 2 == 0)
            R.Sketches = {Sketch::concrete(Probe)};
          R.E.Pos = {"A12", "Z99"};
          R.E.Neg = {"12"};
          R.BudgetMs = 8000;
          Issued[S].push_back(Svc.submit(std::move(R)));
        }
      });
    for (std::thread &T : Threads)
      T.join();
    Poller.join();

    std::set<Ticket> All;
    for (const std::vector<Ticket> &V : Issued)
      All.insert(V.begin(), V.end());
    ASSERT_EQ(All.size(), Total) << "tickets are unique, round " << Round;
    std::map<Ticket, unsigned> Seen;
    for (const Completion &C : Done)
      ++Seen[C.Id];
    ASSERT_EQ(Seen.size(), Total) << "every ticket delivered, round " << Round;
    for (const auto &KV : Seen) {
      EXPECT_TRUE(All.count(KV.first)) << "foreign ticket " << KV.first;
      EXPECT_EQ(KV.second, 1u) << "ticket " << KV.first;
    }
  }
  EXPECT_TRUE(Svc.pollCompleted().empty());
}

TEST(LocalService, OnePollingThreadDrivesManyInFlightTickets) {
  // One thread, no helpers, >= 64 tickets in flight at once, all
  // delivered through pollCompleted.
  engine::EngineConfig EC;
  EC.Threads = 4;
  EC.CacheShards = 8;
  auto Eng = std::make_shared<engine::Engine>(EC);
  LocalService Svc(Eng);
  const size_t Slow = 72, Fast = 8, N = Slow + Fast;
  std::set<Ticket> Outstanding;
  // Long-lived jobs first, then the live-concurrency snapshot: 4 workers
  // against 72 contradictions of 300 ms each cannot drain more than a
  // handful while the (fast) submission loop runs, even under TSan.
  for (size_t I = 0; I < Slow; ++I) {
    engine::JobRequest R;
    R.Sketches = {Sketch::unconstrained()};
    R.E.Pos = {"ab"};
    R.E.Neg = {"ab"}; // no consistent regex: the budget ends the job
    R.BudgetMs = 300;
    Outstanding.insert(Svc.submit(std::move(R)));
  }
  EXPECT_GE(Svc.health().QueueDepth, 64u);
  for (size_t I = 0; I < Fast; ++I)
    Outstanding.insert(Svc.submit(concreteRequest(
        "Concat(<cap>,Repeat(<num>,2))", {"A12", "Z99"}, {"12", "a12"})));
  ASSERT_EQ(Outstanding.size(), N);

  size_t Solved = 0;
  for (const Completion &C : collect(Svc, N)) {
    EXPECT_EQ(Outstanding.erase(C.Id), 1u)
        << "ticket " << C.Id << " must surface exactly once";
    if (C.Result.solved())
      ++Solved;
  }
  EXPECT_TRUE(Outstanding.empty());
  EXPECT_EQ(Solved, Fast); // exactly the concrete-sketch jobs
  EXPECT_TRUE(Svc.pollCompleted().empty());
}

TEST(LocalService, TwoServicesOnOneEngineEachReceiveOnlyTheirOwnTickets) {
  engine::EngineConfig EC;
  EC.Threads = 2;
  EC.CacheShards = 4;
  auto Eng = std::make_shared<engine::Engine>(EC);
  LocalService A(Eng), B(Eng);
  // Each service's jobs have their own answer, so a completion delivered
  // to the wrong service shows in its regex as well as in its count.
  const char *RegexA = "Concat(<cap>,Repeat(<num>,2))";
  const char *RegexB = "Concat(<num>,Repeat(<cap>,2))";
  constexpr size_t PerService = 24;
  std::set<Ticket> IssuedA, IssuedB;
  for (size_t I = 0; I < PerService; ++I) {
    IssuedA.insert(A.submit(concreteRequest(RegexA, {"A12"}, {"12"})));
    IssuedB.insert(B.submit(concreteRequest(RegexB, {"1AB"}, {"AB"})));
  }
  ASSERT_EQ(IssuedA.size(), PerService);
  ASSERT_EQ(IssuedB.size(), PerService);

  // Both pollers run at once, as two event loops on one engine would.
  std::vector<Completion> DoneA, DoneB;
  std::thread PollA([&] { DoneA = collect(A, PerService); });
  std::thread PollB([&] { DoneB = collect(B, PerService); });
  PollA.join();
  PollB.join();

  auto Check = [](const std::vector<Completion> &Done,
                  const std::set<Ticket> &Issued, const char *Regex,
                  const char *Name) {
    const RegexPtr Want = parseRegex(Regex);
    std::map<Ticket, unsigned> Seen;
    for (const Completion &C : Done) {
      ++Seen[C.Id];
      ASSERT_EQ(C.Result.Answers.size(), 1u) << Name << " ticket " << C.Id;
      EXPECT_TRUE(regexEquals(C.Result.Answers[0].Regex, Want))
          << Name << " got another service's job, ticket " << C.Id;
    }
    EXPECT_EQ(Seen.size(), Issued.size()) << Name;
    for (const auto &KV : Seen) {
      EXPECT_TRUE(Issued.count(KV.first)) << Name << " ticket " << KV.first;
      EXPECT_EQ(KV.second, 1u) << Name << " ticket " << KV.first;
    }
  };
  Check(DoneA, IssuedA, RegexA, "A");
  Check(DoneB, IssuedB, RegexB, "B");
  EXPECT_TRUE(A.pollCompleted().empty());
  EXPECT_TRUE(B.pollCompleted().empty());
}

TEST(LocalService, CompletionAfterTheServiceDiedLandsInLiveState) {
  auto MC = std::make_shared<ManualClock>();
  auto Eng = frozenEngine(MC, /*MaxQueueDepth=*/0);
  auto Pokes = std::make_shared<std::atomic<int>>(0);
  {
    LocalService Svc(Eng);
    Svc.setWakeup([Pokes] { ++*Pokes; });
    Svc.submit(slaRequest(/*SlaMs=*/50));
    EXPECT_EQ(Eng->queueDepth(), 1u);
  } // the service dies with its ticket still queued
  EXPECT_EQ(Pokes->load(), 0);

  // The SLA lapses and the sweep expires the job: its continuation files
  // the completion into the state it shares with the dead service and
  // fires the wakeup stored there.
  MC->advanceMs(50);
  Eng->sweepExpiredQueued();
  EXPECT_EQ(Pokes->load(), 1);
  EXPECT_EQ(Eng->queueDepth(), 0u);
  EXPECT_EQ(Eng->snapshot().JobsExpiredInQueue, 1u);
}

TEST(LocalService, DeterministicAnswersMatchDirectEngineSubmit) {
  std::vector<CorpusTask> Tasks = corpusTasks(16);
  ASSERT_GE(Tasks.size(), 8u) << "corpus should yield enough viable tasks";

  // Reference: one worker, handles straight from Engine::submit.
  engine::Engine Direct(engine::EngineConfig{/*Threads=*/1,
                                             /*CacheShards=*/8, nullptr});
  std::vector<engine::JobResult> Ref;
  for (const CorpusTask &T : Tasks)
    Ref.push_back(Direct.submit(deterministicRequest(T))->wait());

  // Subject: the same requests as tickets on a 2-worker engine.
  engine::EngineConfig EC{/*Threads=*/2, /*CacheShards=*/8, nullptr};
  LocalService Svc(std::make_shared<engine::Engine>(EC));
  std::vector<Ticket> Tickets;
  for (const CorpusTask &T : Tasks)
    Tickets.push_back(Svc.submit(deterministicRequest(T)));
  std::map<Ticket, engine::JobResult> Got;
  for (Completion &C : collect(Svc, Tasks.size()))
    Got[C.Id] = std::move(C.Result);
  ASSERT_EQ(Got.size(), Tasks.size());

  unsigned Solved = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    const engine::JobResult &A = Ref[I];
    const engine::JobResult &B = Got[Tickets[I]];
    ASSERT_EQ(A.Answers.size(), B.Answers.size()) << "task " << I;
    for (size_t K = 0; K < A.Answers.size(); ++K) {
      EXPECT_TRUE(regexEquals(A.Answers[K].Regex, B.Answers[K].Regex))
          << "task " << I << " answer " << K;
      EXPECT_EQ(A.Answers[K].SketchRank, B.Answers[K].SketchRank)
          << "task " << I << " answer " << K;
    }
    if (B.solved())
      ++Solved;
  }
  EXPECT_GE(Solved, Tasks.size() / 2);
}
