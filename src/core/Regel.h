//===- core/Regel.h - Multi-modal synthesis driver ----------------*- C++ -*-//
//
// Part of the Regel reproduction. The end-to-end tool of Sec. 6: parse the
// English description into a ranked list of h-sketches, run one PBE engine
// instance per sketch (the paper runs 25 in parallel), and return up to k
// consistent regexes. Every Regel owns (or shares) a persistent
// engine::Engine, and the request-building pipeline (description ->
// JobRequest whose sketch source parses on an engine worker) is exposed
// as free functions so ticket-based service clients (the socket server)
// build byte-for-byte the same jobs the blocking driver does; none of
// the driver's calls parses on its caller's thread. submit() returns the
// rich in-process job handle, so handle-based clients coexist with
// ticket-based ones (service::LocalService) on the same engine.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_CORE_REGEL_H
#define REGEL_CORE_REGEL_H

#include "engine/Job.h"
#include "nlp/SemanticParser.h"
#include "synth/Synthesizer.h"

#include <memory>

namespace regel {

namespace engine {
class Engine;
}

/// Driver configuration (defaults follow Sec. 6/7).
struct RegelConfig {
  unsigned NumSketches = 25;  ///< sketches taken from the parser
  unsigned TopK = 1;          ///< results shown to the user
  int64_t BudgetMs = 10000;   ///< total time budget t (execution-anchored)
  SynthConfig Synth;          ///< PBE engine settings (BudgetMs is split)
  unsigned Threads = 1;       ///< workers of a self-owned engine

  /// Scheduling class of the submitted jobs on a shared engine: an
  /// interactive query must not sit behind a batch fan-out. See
  /// JobRequest::Pri.
  engine::Priority Pri = engine::Priority::Interactive;

  /// Submit-anchored SLA per query (0 = none): bounds queue wait plus
  /// execution on a loaded shared engine, where BudgetMs alone lets
  /// residence time grow with the queue. See JobRequest::ResidencyBudgetMs.
  int64_t ResidencyBudgetMs = 0;

  /// Time source for a self-owned engine (null = steady clock; ignored
  /// when the driver runs on a shared engine, which brings its own).
  /// Lets a test drive a whole Regel pipeline — budgets, SLAs, timed
  /// waits — on a ManualClock end to end.
  std::shared_ptr<const Clock> TimeSource;

  /// Run every sketch to completion and order answers by sketch rank, so
  /// results do not depend on worker count or scheduling (costs the work
  /// cancellation-on-first-success would skip). Scheduling independence
  /// additionally needs deterministic search bounds: BudgetMs = 0 with a
  /// Synth.MaxPops cap, since wall-clock budgets truncate searches at
  /// timing-dependent points.
  bool Deterministic = false;
};

/// One synthesized result. The engine's answer schema IS the driver's
/// answer schema — one definition (this alias replaced a structurally
/// identical duplicate struct).
using RegelAnswer = engine::JobAnswer;

/// End-to-end result.
struct RegelResult {
  std::vector<RegelAnswer> Answers; ///< up to TopK, discovery order
  std::vector<SketchPtr> Sketches;  ///< the sketches that were tried
  double ParseMs = 0;               ///< the job's parse (JobResult::ParseMs)
  double SynthMs = 0;

  bool solved() const { return !Answers.empty(); }
};

/// One query of a batch request.
struct RegelQuery {
  std::string Description;
  Examples E;
};

/// Parses \p Description into the ranked sketch list a Regel driver
/// searches: up to \p NumSketches parser outputs, falling back to the
/// unconstrained sketch (pure PBE) when parsing yields nothing. This IS
/// the driver's sketch pipeline: the sketch source of every description
/// request (see buildJobRequest) calls it on an engine worker, so wire
/// queries and API queries search identical sketch lists.
std::vector<SketchPtr>
sketchesForDescription(const nlp::SemanticParser &Parser,
                       const std::string &Description, unsigned NumSketches);

/// Builds the engine request a RegelConfig implies for \p Sketches and
/// \p E (priority, budgets, SLA, determinism, completion flags). Shared
/// by the blocking driver and every service client.
engine::JobRequest buildJobRequest(const RegelConfig &Cfg,
                                   std::vector<SketchPtr> Sketches,
                                   const Examples &E);

/// The same request for a description: its sketch list is deferred to a
/// source that runs sketchesForDescription(*Parser, Description,
/// Cfg.NumSketches) as the job's first engine task. \p Parser is shared
/// with the job and must not be retrained while the job is in flight.
engine::JobRequest buildJobRequest(const RegelConfig &Cfg,
                                   std::shared_ptr<const nlp::SemanticParser>
                                       Parser,
                                   std::string Description,
                                   const Examples &E);

/// The multi-modal synthesizer.
class Regel {
public:
  /// \p Parser is shared (it carries the trained model weights). The
  /// driver creates its own engine with Cfg.Threads workers.
  explicit Regel(std::shared_ptr<nlp::SemanticParser> Parser,
                 RegelConfig Cfg = RegelConfig());

  /// Runs on \p Eng instead of a self-owned engine — the serving setup:
  /// one process-wide engine, many drivers/requests (Cfg.Threads is
  /// ignored; the engine's pool decides parallelism).
  Regel(std::shared_ptr<nlp::SemanticParser> Parser, RegelConfig Cfg,
        std::shared_ptr<engine::Engine> Eng);

  /// Synthesizes regexes from \p Description and \p E (blocking).
  RegelResult synthesize(const std::string &Description,
                         const Examples &E) const;

  /// Runs the PBE engine over an explicit sketch list (used by the
  /// ablation benches, which fix the sketches). Blocking.
  RegelResult synthesizeFromSketches(const std::vector<SketchPtr> &Sketches,
                                     const Examples &E) const;

  /// Async entry point: submits one job for \p Description without
  /// blocking on the result. The returned handle drives the engine's
  /// completion API (onComplete / waitFor / wait); pair with
  /// resultFromJob to recover a RegelResult. The parse is the job's first engine task, so the
  /// calling thread neither parses nor searches.
  engine::JobPtr submit(const std::string &Description,
                        const Examples &E) const;

  /// Submits an explicit sketch list without blocking (see submit).
  engine::JobPtr submitSketches(std::vector<SketchPtr> Sketches,
                                const Examples &E) const;

  /// Converts a completed job's result into the driver's result type.
  /// \p Sketches is the list the job searched (for a description job,
  /// its request's Sketches once it completed).
  static RegelResult resultFromJob(const engine::JobResult &JR,
                                   std::vector<SketchPtr> Sketches);

  /// Submits every query to the engine at once, then waits for each in
  /// order: concurrent queries parse and search on the shared pool and
  /// caches, and only the calling thread blocks.
  std::vector<RegelResult>
  synthesizeBatch(const std::vector<RegelQuery> &Queries) const;

  const RegelConfig &config() const { return Cfg; }

  /// The engine this driver runs on.
  const std::shared_ptr<engine::Engine> &engine() const { return Eng; }

private:
  std::shared_ptr<nlp::SemanticParser> Parser;
  RegelConfig Cfg;
  std::shared_ptr<engine::Engine> Eng;
};

} // namespace regel

#endif // REGEL_CORE_REGEL_H
