//===- tests/smt/SatisfiableTest.cpp --------------------------------------===//
//
// Tests of smt::satisfiable: hand-written constraints, and a differential
// check against brute-force point enumeration over the formulas constant
// inference actually asks about (length encodings of random symbolic
// partial regexes, with RepeatRange order constraints).
//
//===----------------------------------------------------------------------===//

#include "smt/Satisfiable.h"

#include "regex/Parser.h"
#include "support/Random.h"
#include "synth/Encode.h"

#include <gtest/gtest.h>

using namespace regel;
using namespace regel::smt;

namespace {

TermPtr V(VarId Id) { return Term::var(Id); }
TermPtr C(int64_t Val) { return Term::constant(Val); }

/// Random symbolic partial regexes over a small fixed pool of concrete
/// leaves; integer slots are symbolic (ids below NumVars) or constant.
class PartialGen {
public:
  PartialGen(uint64_t Seed, uint32_t NumVars) : R(Seed), NumVars(NumVars) {}

  PNodePtr gen(unsigned Depth) {
    static const std::vector<const char *> Leaves = {
        "<num>",         "Concat(<a>,<b>)", "Optional(<num>)",
        "KleeneStar(<a>)", "Repeat(<num>,2)", "Or(<a>,Concat(<a>,<b>))",
        "eps"};
    if (Depth == 0 || R.chance(1, 4))
      return PNode::leafNode(parseRegex(R.pick(Leaves)));
    switch (R.nextBelow(7)) {
    case 0:
      return PNode::opNode(RegexKind::Concat, {gen(Depth - 1), gen(Depth - 1)});
    case 1:
      return PNode::opNode(RegexKind::Or, {gen(Depth - 1), gen(Depth - 1)});
    case 2:
      return PNode::opNode(RegexKind::Optional, {gen(Depth - 1)});
    case 3:
      return PNode::opNode(RegexKind::Repeat, {gen(Depth - 1), slot()});
    case 4:
      return PNode::opNode(RegexKind::RepeatAtLeast, {gen(Depth - 1), slot()});
    default:
      return PNode::opNode(RegexKind::RepeatRange,
                           {gen(Depth - 1), slot(), slot()});
    }
  }

  Rng R;

private:
  PNodePtr slot() {
    if (R.chance(1, 4))
      return PNode::intNode(static_cast<int>(R.nextInRange(1, 3)));
    return PNode::symIntNode(static_cast<uint32_t>(R.nextBelow(NumVars)));
  }

  uint32_t NumVars;
};

/// RepeatRange(r, k1, k2) requires k1 <= k2, as constant inference
/// asserts before any length constraint.
void rangeOrder(const PNodePtr &N, std::vector<FormulaPtr> &Out) {
  if (N->getKind() == PLabelKind::OpLabel &&
      N->op() == RegexKind::RepeatRange) {
    auto ToTerm = [](const PNodePtr &K) {
      return K->getKind() == PLabelKind::IntLabel ? C(K->intValue())
                                                  : V(K->symInt());
    };
    Out.push_back(
        Formula::le(ToTerm(N->children()[1]), ToTerm(N->children()[2])));
  }
  for (const PNodePtr &Kid : N->children())
    rangeOrder(Kid, Out);
}

/// Whether some point of the box satisfies \p F, by enumeration.
bool bruteForce(const FormulaPtr &F, const std::vector<Interval> &D) {
  std::vector<int64_t> Point(D.size());
  for (size_t I = 0; I < D.size(); ++I)
    Point[I] = D[I].Lo;
  while (true) {
    if (F->evalPoint(Point))
      return true;
    size_t I = 0;
    while (I < D.size() && Point[I] == D[I].Hi) {
      Point[I] = D[I].Lo;
      ++I;
    }
    if (I == D.size())
      return false;
    ++Point[I];
  }
}

} // namespace

TEST(Satisfiable, Example46FromPaper) {
  // psi_0 = (k1 + k2 <= 7) with k1, k2 in [1, MAX]: the paper's
  // simplified decimal-benchmark constraint (Eq. 5).
  FormulaPtr F = Formula::le(Term::add(V(0), V(1)), C(7));
  EXPECT_EQ(satisfiable(F, {{1, 20}, {1, 20}}), true);
  // The same constraint cannot hold once both constants exceed 3.
  EXPECT_EQ(satisfiable(F, {{4, 20}, {4, 20}}), false);
}

TEST(Satisfiable, NonLinearProduct) {
  FormulaPtr Twelve = Formula::eq(Term::mul(V(0), V(1)), C(12));
  EXPECT_EQ(satisfiable(Twelve, {{1, 10}, {1, 10}}), true);
  // 13 is prime, and 1 is outside the domains.
  FormulaPtr Thirteen = Formula::eq(Term::mul(V(0), V(1)), C(13));
  EXPECT_EQ(satisfiable(Thirteen, {{2, 10}, {2, 10}}), false);
}

TEST(Satisfiable, IntervalPruningDecidesAtTheRoot) {
  // k0 + k1 + k2 <= 2 is refuted by interval evaluation of the whole
  // box (the sum is at least 3), so one node suffices.
  FormulaPtr F = Formula::le(Term::add(V(0), Term::add(V(1), V(2))), C(2));
  EXPECT_EQ(satisfiable(F, {{1, 20}, {1, 20}, {1, 20}}, /*NodeBudget=*/1),
            false);
  // k0 + k1 + k2 <= 3 forces all-ones: ascending order finds it on the
  // first path, root plus one node per variable.
  FormulaPtr G = Formula::le(Term::add(V(0), Term::add(V(1), V(2))), C(3));
  EXPECT_EQ(satisfiable(G, {{1, 20}, {1, 20}, {1, 20}}, /*NodeBudget=*/4),
            true);
}

TEST(Satisfiable, NodeBudgetYieldsUnknown) {
  // Interval reasoning alone cannot decide this: the search must branch,
  // and a budget of 2 nodes is exhausted before the first model.
  FormulaPtr F = Formula::eq(Term::mul(V(0), V(1)),
                             Term::add(Term::mul(V(2), V(3)), C(1)));
  const std::vector<Interval> D(4, Interval{1, 30});
  EXPECT_EQ(satisfiable(F, D, /*NodeBudget=*/2), std::nullopt);
  EXPECT_EQ(satisfiable(F, D), true);
}

TEST(Satisfiable, AgreesWithBruteForceOnLengthEncodings) {
  unsigned Sat = 0, Unsat = 0, BudgetOuts = 0, Ranges = 0;
  for (uint64_t Seed = 1; Seed <= 600; ++Seed) {
    const uint32_t NumVars = 1 + static_cast<uint32_t>(Seed % 3);
    PartialGen G(Seed * 0x9e3779b97f4a7c15ull, NumVars);
    PNodePtr Root = G.gen(3);
    std::vector<FormulaPtr> Parts;
    rangeOrder(Root, Parts);
    Ranges += Parts.empty() ? 0 : 1;
    const SymIntervalSet Lengths = encodeLengths(Root);
    const unsigned NumLengths = 1 + static_cast<unsigned>(G.R.nextBelow(2));
    for (unsigned I = 0; I < NumLengths; ++I)
      Parts.push_back(lengthMembership(Lengths, G.R.nextInRange(0, 9)));
    const FormulaPtr F = Formula::conj(Parts);
    const std::vector<Interval> D(
        NumVars, Interval{1, static_cast<int64_t>(G.R.nextInRange(3, 5))});

    const bool Expected = bruteForce(F, D);
    ASSERT_EQ(satisfiable(F, D), Expected)
        << "seed " << Seed << ": " << F->str();
    (Expected ? Sat : Unsat) += 1;

    // A budget-out is "unknown", never a verdict: any answer a small
    // budget does give must be the true one.
    for (uint64_t Budget = 1; Budget <= 6; ++Budget) {
      std::optional<bool> R = satisfiable(F, D, Budget);
      if (!R) {
        ++BudgetOuts;
        continue;
      }
      EXPECT_EQ(*R, Expected) << "seed " << Seed << " budget " << Budget
                              << ": " << F->str();
    }
  }
  // Non-vacuity: both verdicts, budget-outs and range constraints occur.
  EXPECT_GT(Sat, 50u);
  EXPECT_GT(Unsat, 50u);
  EXPECT_GT(BudgetOuts, 50u);
  EXPECT_GT(Ranges, 50u);
}
