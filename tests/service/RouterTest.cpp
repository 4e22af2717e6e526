//===- tests/service/RouterTest.cpp ---------------------------------------===//
//
// RouterService behaviour: answer determinism against a single local
// engine on TestCorpus tasks (sharding must not change results),
// shard-affinity stability (same key -> same backend, both shards used
// across the corpus), least-estimated-wait spillover under an unbalanced
// load, ticket remapping, and the composite stats document.
//
//===----------------------------------------------------------------------===//

#include "service/RouterService.h"

#include "automata/Compile.h"
#include "automata/Sample.h"
#include "core/Regel.h"
#include "engine/Engine.h"
#include "regex/Matcher.h"
#include "regex/Parser.h"
#include "service/LocalService.h"
#include "support/Random.h"

#include "common/TestCorpus.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

using namespace regel;
using namespace regel::service;

namespace {

/// A corpus-derived synthesis task (same construction as the engine
/// determinism suite): examples sampled from the ground truth, sketches
/// that admit it.
struct CorpusTask {
  RegexPtr GroundTruth;
  Examples E;
  std::vector<SketchPtr> Sketches;
};

std::vector<CorpusTask> corpusTasks(size_t MaxTasks) {
  std::vector<CorpusTask> Tasks;
  Rng R(0xc0ffee);
  for (const char *Text : tests::regexCorpus()) {
    if (Tasks.size() >= MaxTasks)
      break;
    RegexPtr G = parseRegex(Text);
    if (!G)
      continue;
    Dfa D = compileRegex(G);
    CorpusTask T;
    T.GroundTruth = G;
    T.E.Pos = sampleAcceptedSet(D, R, 3, 8);
    if (T.E.Pos.size() < 2)
      continue;
    for (const char *Probe : tests::probeStrings()) {
      if (T.E.Neg.size() >= 4)
        break;
      if (!D.matches(Probe))
        T.E.Neg.push_back(Probe);
    }
    if (T.E.Neg.size() < 2)
      continue;
    T.Sketches = {Sketch::hole({Sketch::concrete(G)}),
                  Sketch::unconstrained()};
    Tasks.push_back(std::move(T));
  }
  return Tasks;
}

/// A deterministic job: no wall-clock budgets anywhere (the pop cap
/// bounds the search), so results are scheduling-independent.
engine::JobRequest deterministicRequest(const CorpusTask &T) {
  engine::JobRequest R;
  R.Sketches = T.Sketches;
  R.E = T.E;
  R.TopK = 2;
  R.BudgetMs = 0;
  R.Synth.MaxPops = 3000;
  R.Deterministic = true;
  return R;
}

std::shared_ptr<LocalService> localBackend(unsigned Threads) {
  engine::EngineConfig EC;
  EC.Threads = Threads;
  EC.CacheShards = 8;
  return std::make_shared<LocalService>(
      std::make_shared<engine::Engine>(EC));
}

/// Submits every request and drains completions until all tickets have
/// resolved; returns results keyed by ticket.
std::map<Ticket, engine::JobResult>
runAll(SynthService &Svc, const std::vector<engine::JobRequest> &Requests,
       std::vector<Ticket> &TicketsOut) {
  TicketsOut.clear();
  for (const engine::JobRequest &R : Requests)
    TicketsOut.push_back(Svc.submit(R));
  std::map<Ticket, engine::JobResult> Results;
  while (Results.size() < Requests.size())
    for (Completion &C : Svc.waitCompleted(500)) {
      EXPECT_FALSE(C.TransportError);
      Results[C.Id] = std::move(C.Result);
    }
  return Results;
}

} // namespace

TEST(RouterService, DeterministicAnswersMatchSingleLocalEngine) {
  std::vector<CorpusTask> Tasks = corpusTasks(16);
  ASSERT_GE(Tasks.size(), 8u) << "corpus should yield enough viable tasks";

  // Reference: one local engine, one worker, driven through the service
  // seam so both sides run the identical code path above the backend.
  LocalService Single(
      std::make_shared<engine::Engine>(engine::EngineConfig{
          /*Threads=*/1, /*CacheShards=*/8, nullptr}));

  // Subject: a router over 2 local backends, 2 workers each.
  RouterService Router({localBackend(2), localBackend(2)});
  ASSERT_EQ(Router.backendCount(), 2u);

  std::vector<engine::JobRequest> Requests;
  for (const CorpusTask &T : Tasks)
    Requests.push_back(deterministicRequest(T));

  std::vector<Ticket> SingleTickets, RouterTickets;
  std::map<Ticket, engine::JobResult> Ref =
      runAll(Single, Requests, SingleTickets);
  std::map<Ticket, engine::JobResult> Got =
      runAll(Router, Requests, RouterTickets);

  unsigned Solved = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    const engine::JobResult &A = Ref[SingleTickets[I]];
    const engine::JobResult &B = Got[RouterTickets[I]];
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

TEST(RouterService, SameAffinityKeySameBackend) {
  RouterService Router({localBackend(1), localBackend(1)});

  std::set<size_t> BackendsUsed;
  for (const CorpusTask &T : corpusTasks(16)) {
    engine::JobRequest R = deterministicRequest(T);
    const uint64_t Key = RouterService::affinityKey(R);
    const size_t First = Router.pickBackend(R);
    BackendsUsed.insert(First);
    // Stability: the same request (same key) routes to the same shard on
    // every balanced-load decision.
    for (int Repeat = 0; Repeat < 5; ++Repeat) {
      EXPECT_EQ(RouterService::affinityKey(R), Key);
      EXPECT_EQ(Router.pickBackend(R), First);
    }
  }
  // The corpus spans both shards — affinity is hashing, not collapsing.
  EXPECT_EQ(BackendsUsed.size(), 2u);
}

TEST(RouterService, SpillsToLeastEstimatedWaitUnderImbalance) {
  // Two 0-worker backends (jobs queue, nothing runs): full control over
  // queue depth. Prime BOTH estimators so EstWaitMs = depth x blended
  // (cold estimators would make every wait 0 and nothing could spill).
  auto A = localBackend(0);
  auto B = localBackend(0);
  A->engine()->estimator().recordSample(engine::Priority::Interactive,
                                        1000.0);
  B->engine()->estimator().recordSample(engine::Priority::Interactive,
                                        1000.0);

  RouterConfig RC;
  RC.SpillMarginMs = 100.0;
  RouterService Router({A, B}, RC);

  // Find a corpus request whose affinity home is backend 0 (A).
  std::vector<CorpusTask> Tasks = corpusTasks(16);
  engine::JobRequest HomeA;
  bool Found = false;
  for (const CorpusTask &T : Tasks) {
    engine::JobRequest R = deterministicRequest(T);
    if (RouterService::affinityKey(R) % 2 == 0) {
      HomeA = R;
      Found = true;
      break;
    }
  }
  ASSERT_TRUE(Found) << "corpus should hash to both shards";

  // Balanced: routes home.
  EXPECT_EQ(Router.pickBackend(HomeA), 0u);

  // Load A far beyond the margin: depth 5 x 1000ms blended = ~5s wait
  // vs 0 on B. The same request must now spill to B.
  for (int I = 0; I < 5; ++I) {
    engine::JobRequest Filler;
    Filler.Sketches = {Sketch::unconstrained()};
    Filler.E.Pos = {"x"};
    A->submit(Filler);
  }
  EXPECT_EQ(Router.pickBackend(HomeA), 1u);

  // Routed through submit(), the spill is counted and lands on B.
  const uint64_t DepthB0 = B->engine()->queueDepth();
  Router.submit(HomeA);
  EXPECT_EQ(B->engine()->queueDepth(), DepthB0 + 1);
  RouterStats S = Router.stats();
  EXPECT_EQ(S.Routed, 1u);
  EXPECT_EQ(S.Spilled, 1u);

  // With a prohibitive margin, affinity wins even under the imbalance.
  RouterConfig Sticky;
  Sticky.SpillMarginMs = 1e9;
  RouterService StickyRouter({A, B}, Sticky);
  EXPECT_EQ(StickyRouter.pickBackend(HomeA), 0u);

  // Let the queued-but-never-run jobs skip instead of searching when the
  // 0-worker engines drain at destruction.
  A->engine()->cancelAll();
  B->engine()->cancelAll();
}

TEST(RouterService, TicketsRemapAndStatsCompose) {
  RouterService Router({localBackend(1), localBackend(1)});

  // Cheap concrete-sketch jobs across both shards.
  RegexPtr Probe = parseRegex("Concat(<cap>,Repeat(<num>,2))");
  ASSERT_TRUE(Probe);
  std::vector<engine::JobRequest> Requests;
  for (int I = 0; I < 8; ++I) {
    engine::JobRequest R;
    R.Sketches = {Sketch::concrete(Probe),
                  Sketch::hole({Sketch::concrete(Probe)})};
    // Vary the sketch list length so affinity keys differ across jobs.
    if (I % 2)
      R.Sketches.push_back(Sketch::unconstrained());
    R.E.Pos = {"A12", "Z99"};
    R.E.Neg = {"12"};
    R.BudgetMs = 8000;
    Requests.push_back(std::move(R));
  }
  std::vector<Ticket> Tickets;
  std::map<Ticket, engine::JobResult> Results =
      runAll(Router, Requests, Tickets);

  // Tickets are router-scoped and distinct; every job completed exactly
  // once and solved.
  std::set<Ticket> Unique(Tickets.begin(), Tickets.end());
  EXPECT_EQ(Unique.size(), Requests.size());
  for (Ticket T : Tickets) {
    ASSERT_TRUE(Results.count(T));
    EXPECT_TRUE(Results[T].solved());
  }

  RouterStats S = Router.stats();
  EXPECT_EQ(S.Routed, Requests.size());
  ASSERT_EQ(S.PerBackend.size(), 2u);
  EXPECT_EQ(S.PerBackend[0] + S.PerBackend[1], Requests.size());

  // The composite stats document nests both backends' engine snapshots.
  std::string Json = Router.statsJson();
  EXPECT_NE(Json.find("\"router\""), std::string::npos);
  EXPECT_NE(Json.find("\"routed_per_backend\""), std::string::npos);
  EXPECT_NE(Json.find("\"backend_stats\""), std::string::npos);

  // Aggregate health: workers sum across backends.
  EXPECT_EQ(Router.health().Workers, 2u);
}
