//===- tests/service/LocalServiceTest.cpp ---------------------------------===//
//
// The ticket-based service over one engine: exactly-once completion
// delivery (including jobs that finish at submit — rejected at the
// queue-depth high-water mark, shed on arrival), cancel's return contract,
// concurrent submitters racing one poller (the Stash claim path), and
// answer identity with direct Engine::submit on TestCorpus tasks under
// deterministic mode.
//
//===----------------------------------------------------------------------===//

#include "service/LocalService.h"

#include "regex/Parser.h"
#include "support/Clock.h"
#include "support/Timer.h"

#include "common/TestCorpus.h"

#include <gtest/gtest.h>

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

/// Collects completions from \p Svc until \p N arrived or 30 s of real
/// time passed.
std::vector<Completion> collect(LocalService &Svc, size_t N) {
  std::vector<Completion> Out;
  Stopwatch W;
  while (Out.size() < N && W.elapsedMs() < 30000)
    for (Completion &C : Svc.waitCompleted(50))
      Out.push_back(std::move(C));
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
  EXPECT_EQ(std::set<Ticket>({Queued, Rejected, Shed}).size(), 3u);
  EXPECT_EQ(Svc.health().QueueDepth, 1u);

  // The submit-time verdicts are deliverable at once, each exactly once.
  std::map<Ticket, engine::JobResult> Results;
  for (Completion &C : Svc.pollCompleted()) {
    EXPECT_FALSE(Results.count(C.Id)) << "ticket " << C.Id << " twice";
    Results[C.Id] = std::move(C.Result);
  }
  ASSERT_EQ(Results.size(), 2u);
  ASSERT_TRUE(Results.count(Rejected));
  ASSERT_TRUE(Results.count(Shed));
  EXPECT_TRUE(Results[Rejected].Rejected);
  EXPECT_FALSE(Results[Rejected].ShedOnArrival);
  EXPECT_TRUE(Results[Shed].ShedOnArrival);
  EXPECT_FALSE(Results[Shed].Rejected);

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
  // (rejected), as empty-sketch jobs always do: those race the poller to
  // the completion queue before their ticket is mapped.
  EC.MaxQueueDepth = 4;
  LocalService Svc(std::make_shared<engine::Engine>(EC));

  RegexPtr Probe = parseRegex("Concat(<cap>,Repeat(<num>,2))");
  ASSERT_TRUE(Probe);
  // Fresh threads every round: the race is likeliest while they spin up,
  // so many short rounds hit the Stash claim path far more often than
  // one long round.
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
