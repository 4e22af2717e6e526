//===- tests/synth/PruningSoundnessTest.cpp -------------------------------===//
//
// Differential check that the over/under-approximation pruning of
// Sec. 4.1 is sound: it may only drop infeasible partial regexes. The
// worklist orders survivors by (cost, push order), and pruning removes
// partials without reordering the rest, so on every sketch that Regel-Enum
// (no pruning) solves within a pop cap, Regel-Approx must return the same
// first answer after no more pops. A pruned feasible partial either loses
// that answer or delays it past other candidates, and fails the test.
// Pop caps, not wall-clock budgets, bound both runs, so the outcome does
// not depend on the host.
//
//===----------------------------------------------------------------------===//

#include "data/StackOverflowSet.h"
#include "regex/Printer.h"
#include "support/Random.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace regel;

TEST(PruningSoundness, ApproxKeepsEnumsFirstAnswerInNoMorePops) {
  // A seeded draw of 24 gold sketches from the StackOverflow set.
  std::vector<data::Benchmark> Set = data::stackOverflowSet();
  Rng R(0x50a9d);
  for (size_t I = Set.size(); I > 1; --I)
    std::swap(Set[I - 1], Set[R.nextBelow(I)]);
  Set.resize(24);

  SynthConfig Enum;
  Enum.UseApprox = false;
  Enum.UseSymbolic = false;
  Enum.MaxPops = 300;
  SynthConfig Approx = Enum;
  Approx.UseApprox = true;

  unsigned Solved = 0;
  uint64_t PrunedOnSolved = 0;
  for (const data::Benchmark &B : Set) {
    const SynthResult RE = Synthesizer(Enum).run(B.GoldSketch, B.Initial);
    const SynthResult RA = Synthesizer(Approx).run(B.GoldSketch, B.Initial);
    EXPECT_EQ(RE.Stats.PrunedInfeasible, 0u) << B.Id;
    if (!RE.solved())
      continue;
    ++Solved;
    PrunedOnSolved += RA.Stats.PrunedInfeasible;
    ASSERT_TRUE(RA.solved()) << B.Id << ": pruning lost "
                             << printRegex(RE.Solutions[0]);
    EXPECT_EQ(printRegex(RA.Solutions[0]), printRegex(RE.Solutions[0]))
        << B.Id;
    EXPECT_LE(RA.Stats.Pops, RE.Stats.Pops) << B.Id;
  }
  // The check has teeth only if Enum solves most of the draw and Approx
  // prunes on the way to those answers (19 solved, 50k pruned today).
  EXPECT_GE(Solved, 12u);
  EXPECT_GT(PrunedOnSolved, 1000u);
}
