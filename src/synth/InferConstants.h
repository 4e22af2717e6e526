//===- synth/InferConstants.h - SMT-guided constant inference (Fig. 14) -*-===//
//
// Part of the Regel reproduction. Instantiates the symbolic integers of a
// symbolic regex with concrete constants, using the length encoding as an
// over-approximate constraint (checked for satisfiability up front), an
// ascending enumeration of the assignments that survive it, and
// partial-assignment feasibility checks (Sec. 4.2, footnote 4).
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SYNTH_INFERCONSTANTS_H
#define REGEL_SYNTH_INFERCONSTANTS_H

#include "support/Timer.h"
#include "synth/Approximate.h"
#include "synth/Config.h"
#include "synth/PartialRegex.h"

namespace regel {

/// Counters reported by inferConstants.
///   IntervalEvals — three-valued interval sweeps over the constraint
///                   set (microseconds each, one per enumeration node);
///   SmtSolves     — smt::satisfiable searches actually executed (the
///                   expensive operation, and the one the verdict store
///                   elides);
///   SmtCacheHits  — satisfiability checks answered by the attached
///                   verdict store instead (disjoint from SmtSolves).
struct InferStats {
  uint64_t IntervalEvals = 0;
  uint64_t SmtSolves = 0;
  uint64_t SmtCacheHits = 0;

  /// Enumerations abandoned up front because a per-example or joint
  /// length check came back Unsat.
  uint64_t UnsatShortCircuits = 0;

  uint64_t Iterations = 0;
  uint64_t PrunedPartialAssignments = 0;
  bool HitIterationCap = false;
};

/// Returns every concrete instantiation of \p P0's symbolic integers that
/// survives the length constraints and partial-assignment feasibility
/// checks (Theorem 4.7: every consistent concretization is included).
/// The results still need a full example-consistency check by the caller.
std::vector<RegexPtr> inferConstants(const PartialRegex &P0,
                                     const Examples &E,
                                     const SynthConfig &Cfg,
                                     FeasibilityChecker &Checker,
                                     InferStats &Stats,
                                     const Deadline *Budget = nullptr);

} // namespace regel

#endif // REGEL_SYNTH_INFERCONSTANTS_H
