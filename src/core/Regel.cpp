//===- core/Regel.cpp -----------------------------------------------------===//

#include "core/Regel.h"

#include "engine/Engine.h"
#include "support/Mutex.h"

#include <algorithm>
#include <condition_variable>

using namespace regel;

namespace {

engine::EngineConfig engineConfigFor(const RegelConfig &Cfg) {
  engine::EngineConfig EC;
  EC.Threads = std::max(1u, Cfg.Threads);
  EC.TimeSource = Cfg.TimeSource;
  return EC;
}

} // namespace

std::vector<SketchPtr>
regel::sketchesForDescription(const nlp::SemanticParser &Parser,
                              const std::string &Description,
                              unsigned NumSketches) {
  std::vector<nlp::ScoredSketch> Scored =
      Parser.parse(Description, NumSketches);
  std::vector<SketchPtr> Sketches;
  Sketches.reserve(Scored.size());
  for (nlp::ScoredSketch &S : Scored)
    Sketches.push_back(std::move(S.Sketch));
  if (Sketches.empty())
    Sketches.push_back(Sketch::unconstrained()); // fall back to pure PBE
  return Sketches;
}

engine::JobRequest regel::buildJobRequest(const RegelConfig &Cfg,
                                          std::vector<SketchPtr> Sketches,
                                          const Examples &E) {
  engine::JobRequest R;
  R.Sketches = std::move(Sketches);
  R.E = E;
  R.TopK = Cfg.TopK;
  R.Pri = Cfg.Pri;
  R.BudgetMs = Cfg.BudgetMs;
  R.ResidencyBudgetMs = Cfg.ResidencyBudgetMs;
  R.Synth = Cfg.Synth;
  R.Deterministic = Cfg.Deterministic;
  R.EnqueueCompletion = Cfg.EnqueueCompletion;
  return R;
}

engine::JobRequest
regel::buildJobRequest(const RegelConfig &Cfg,
                       std::shared_ptr<const nlp::SemanticParser> Parser,
                       std::string Description, const Examples &E) {
  engine::JobRequest R = buildJobRequest(Cfg, {}, E);
  R.SketchSource = [P = std::move(Parser), D = std::move(Description),
                    N = Cfg.NumSketches] {
    return sketchesForDescription(*P, D, N);
  };
  return R;
}

RegelResult Regel::resultFromJob(const engine::JobResult &JR,
                                 std::vector<SketchPtr> Sketches) {
  RegelResult Result;
  Result.Sketches = std::move(Sketches);
  Result.ParseMs = JR.ParseMs;
  // Synthesis time, not residence time: on a loaded shared engine TotalMs
  // includes queue wait, which is not what SynthMs has always meant.
  Result.SynthMs = JR.ExecMs;
  Result.Answers = JR.Answers; // same type since the RegelAnswer dedup
  return Result;
}

Regel::Regel(std::shared_ptr<nlp::SemanticParser> Parser, RegelConfig Cfg)
    : Parser(std::move(Parser)), Cfg(std::move(Cfg)),
      Eng(std::make_shared<engine::Engine>(engineConfigFor(this->Cfg))) {}

Regel::Regel(std::shared_ptr<nlp::SemanticParser> Parser, RegelConfig Cfg,
             std::shared_ptr<engine::Engine> Eng)
    : Parser(std::move(Parser)), Cfg(std::move(Cfg)),
      Eng(std::move(Eng)) {}

RegelResult Regel::synthesize(const std::string &Description,
                              const Examples &E) const {
  engine::JobPtr Job = submit(Description, E);
  engine::JobResult JR = Job->wait();
  return resultFromJob(JR, Job->request().Sketches);
}

engine::JobPtr Regel::submit(const std::string &Description,
                             const Examples &E) const {
  return Eng->submit(buildJobRequest(Cfg, Parser, Description, E));
}

engine::JobPtr Regel::submitSketches(std::vector<SketchPtr> Sketches,
                                     const Examples &E) const {
  return Eng->submit(buildJobRequest(Cfg, std::move(Sketches), E));
}

RegelResult Regel::synthesizeFromSketches(
    const std::vector<SketchPtr> &Sketches, const Examples &E) const {
  engine::JobPtr Job = submitSketches(Sketches, E);
  return resultFromJob(Job->wait(), Sketches);
}

std::vector<RegelResult>
Regel::synthesizeBatch(const std::vector<RegelQuery> &Queries) const {
  // Completion-driven collection: each job deposits its result through an
  // onComplete continuation (running on the finishing worker — or right
  // here, synchronously, for jobs that completed before registration),
  // and this thread blocks exactly once, until the count drains. Unlike
  // the old wait()-per-job loop, nothing is parked per outstanding job.
  const size_t N = Queries.size();
  // The collector uses the annotated wrapper like every other lock in
  // the tree, so both -Wthread-safety and the lock-discipline analyzer
  // cover it (it was the last function-local std::mutex).
  struct BatchCollector {
    Mutex M;
    std::condition_variable CV;
    size_t Remaining REGEL_GUARDED_BY(M) = 0;
    std::vector<engine::JobResult> Results REGEL_GUARDED_BY(M);
    // CV predicate; runs with M held (the wait re-acquires around it).
    bool donePred() const REGEL_NO_THREAD_SAFETY_ANALYSIS {
      return Remaining == 0;
    }
  };
  BatchCollector C;
  {
    MutexLock Guard(C.M);
    C.Remaining = N;
    C.Results.resize(N);
  }
  std::vector<engine::JobPtr> Jobs;
  Jobs.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    engine::JobPtr J = submit(Queries[I].Description, Queries[I].E);
    Jobs.push_back(J);
    J->onComplete([&C, I](const engine::JobResult &JR) {
      // The notify stays under M: C is stack-local, so the instant the
      // last callback releases the lock the (possibly spuriously woken)
      // waiter can see Remaining==0, return, and destroy C — notifying
      // after the unlock would touch a dead condition_variable.
      MutexLock Guard(C.M);
      C.Results[I] = JR;
      if (--C.Remaining == 0)
        C.CV.notify_all();
    });
  }
  std::vector<engine::JobResult> JobResults;
  {
    UniqueLock Guard(C.M);
    C.CV.wait(Guard.native(), [&C] { return C.donePred(); });
    JobResults = std::move(C.Results);
  }

  std::vector<RegelResult> Results;
  Results.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Results.push_back(
        resultFromJob(JobResults[I], Jobs[I]->request().Sketches));
  return Results;
}
