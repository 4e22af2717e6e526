//===- core/Regel.cpp -----------------------------------------------------===//

#include "core/Regel.h"

#include "engine/Engine.h"

#include <algorithm>

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
  std::vector<engine::JobPtr> Jobs;
  Jobs.reserve(Queries.size());
  for (const RegelQuery &Q : Queries)
    Jobs.push_back(submit(Q.Description, Q.E));
  std::vector<RegelResult> Results;
  Results.reserve(Jobs.size());
  for (const engine::JobPtr &J : Jobs)
    Results.push_back(resultFromJob(J->wait(), J->request().Sketches));
  return Results;
}
