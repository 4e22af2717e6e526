//===- synth/Synthesizer.h - Sketch-guided PBE engine (Fig. 9) --*- C++ -*-===//
//
// Part of the Regel reproduction. The Synthesize worklist algorithm:
// expand open nodes (Fig. 10), prune with over/under-approximations
// (Sec. 4.1), concretize symbolic integers with SMT-guided inference
// (Sec. 4.2), and check concrete candidates against the examples (with the
// subsumption heuristics of Sec. 6).
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SYNTH_SYNTHESIZER_H
#define REGEL_SYNTH_SYNTHESIZER_H

#include "synth/Config.h"
#include "synth/PartialRegex.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace regel {

/// The counters of one synthesis run that the engine sums, one row each.
/// SMT accounting is split by what actually ran (see InferStats): interval
/// sweeps are the cheap per-node pruning oracle, solves are
/// smt::satisfiable searches, cache hits are satisfiability checks
/// answered by the shared verdict store without a search. The engine sums
/// every run into the row of the same name in its counter table
/// (engine/Stats.h).
#define REGEL_SYNTH_COUNTERS(X)                                                \
  X(Pops) X(Expansions) X(PrunedInfeasible) X(ConcreteChecked)                 \
  X(SmtIntervalEvals) X(SmtSolves) X(SmtCacheHits) X(SmtUnsatShortCircuits)

/// Counters for one synthesis run (reported by benches and tests).
struct SynthStats {
#define REGEL_SYNTH_FIELD(Field) uint64_t Field = 0;
  REGEL_SYNTH_COUNTERS(REGEL_SYNTH_FIELD)
#undef REGEL_SYNTH_FIELD

  uint64_t SubsumptionSkips = 0; ///< per run only; not an engine row
  double TimeMs = 0;
};

/// Outcome of one synthesis run.
struct SynthResult {
  /// Consistent regexes, in discovery order (up to TopK).
  std::vector<RegexPtr> Solutions;
  SynthStats Stats;
  bool TimedOut = false;   ///< Stopped by the time budget / pop cap.
  bool Cancelled = false;  ///< Stopped through SynthConfig::CancelFlag.
  bool Exhausted = false;  ///< Worklist ran dry.

  bool solved() const { return !Solutions.empty(); }
};

/// The sketch-guided PBE engine. One instance per synthesis task (it owns
/// the subsumption memos that persist across candidate checks within a run).
class Synthesizer {
public:
  explicit Synthesizer(SynthConfig Cfg = SynthConfig());

  /// Runs the Fig. 9 algorithm on sketch \p S and examples \p E.
  SynthResult run(const SketchPtr &S, const Examples &E);

  const SynthConfig &config() const { return Cfg; }

private:
  bool checkConcrete(const RegexPtr &R, const Examples &E, SynthStats &Stats);

  SynthConfig Cfg;

  /// Subsumption memos (Sec. 6), reset per run: bodies r for which
  /// Contains(r) failed a positive example, and the smallest k for which
  /// RepeatAtLeast(r, k) failed.
  std::unordered_map<RegexPtr, char, RegexPtrHash, RegexPtrEq> ContainsFailed;
  std::unordered_map<RegexPtr, int, RegexPtrHash, RegexPtrEq> AtLeastFailed;
};

} // namespace regel

#endif // REGEL_SYNTH_SYNTHESIZER_H
