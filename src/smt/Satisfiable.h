//===- smt/Satisfiable.h - Bounded-domain satisfiability --------*- C++ -*-===//
//
// Part of the Regel reproduction; this is the Z3 substitute used by
// InferConstants (Sec. 4.2), which asks it exactly one question: does any
// assignment within the variables' finite domains satisfy the length
// constraints? The answer comes from a depth-first search with
// three-valued interval pruning at every node, branching on the first
// unassigned variable in ascending value order.
//
// Verdicts are deterministic functions of (formula, domains), so they
// can be shared across synthesis runs: ShardedSmtCache is the engine's
// cross-run verdict store, keyed on the canonical (hash-consed, sorted,
// de-duplicated) formula plus the full domain vector.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SMT_SATISFIABLE_H
#define REGEL_SMT_SATISFIABLE_H

#include "smt/Formula.h"
#include "support/ShardedLru.h"

#include <optional>
#include <vector>

namespace regel::smt {

/// Decides whether some assignment with variable i in \p Domains[i]
/// satisfies \p F. Every domain must be finite and non-negative.
/// \p NodeBudget bounds the number of DFS nodes visited (0 = unlimited);
/// returns nullopt when the budget runs out before an answer.
std::optional<bool> satisfiable(const FormulaPtr &F,
                                const std::vector<Interval> &Domains,
                                uint64_t NodeBudget = 0);

/// Key of the verdict store: a canonical formula over a domain vector.
/// Interning makes the formula O(1) to hash and compare.
struct VerdictKey {
  FormulaPtr F;
  std::vector<Interval> Domains;
};

/// The domain vector is folded through mix64 so shard choice sees every
/// bound.
struct VerdictKeyHash {
  size_t operator()(const VerdictKey &K) const {
    uint64_t H = mix64(static_cast<uint64_t>(K.F->hash()));
    for (const Interval &I : K.Domains)
      H = mix64(H ^ mix64(static_cast<uint64_t>(I.Lo) * 0x9e3779b97f4a7c15ull ^
                          static_cast<uint64_t>(I.Hi)));
    return static_cast<size_t>(H);
  }
};

struct VerdictKeyEq {
  bool operator()(const VerdictKey &A, const VerdictKey &B) const {
    return A.F == B.F && A.Domains == B.Domains;
  }
};

/// The cross-run (formula, domains) -> satisfiable store. Only completed
/// verdicts belong in it: a budget-out depends on the caller's budget,
/// not on the formula.
using ShardedSmtCache =
    ShardedLru<VerdictKey, bool, VerdictKeyHash, VerdictKeyEq>;

} // namespace regel::smt

#endif // REGEL_SMT_SATISFIABLE_H
