//===- smt/Solver.h - Bounded-domain constraint solver ----------*- C++ -*-===//
//
// Part of the Regel reproduction; this is the Z3 substitute used by
// InferConstants (Sec. 4.2). Variables have finite non-negative domains
// (symbolic integers live in [1, MAX]); solving is depth-first search with
// interval-based three-valued pruning at every node, ascending value order
// (so the first model uses the smallest constants — matching Regel's
// preference for small regexes), and blocking clauses for model
// enumeration.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SMT_SOLVER_H
#define REGEL_SMT_SOLVER_H

#include "smt/Formula.h"

#include <optional>
#include <vector>

namespace regel::smt {

/// A full assignment of the declared variables.
using Model = std::vector<int64_t>;

enum class SolveStatus : uint8_t { Sat, Unsat, ResourceOut };

/// Result of a solve call; Model is populated iff Status == Sat.
struct SolveResult {
  SolveStatus Status;
  Model Assignment;

  bool isSat() const { return Status == SolveStatus::Sat; }
};

/// Cross-run verdict store consulted by Solver::solve — the SMT
/// memoization seam, implemented by the engine's ShardedSmtCache the way
/// SketchApproxStore is implemented by its ShardedApproxStore. A key is
/// the canonical (hash-consed, sorted, de-duplicated) conjunction of the
/// solver's constraints plus the full declared-domain vector; the verdict
/// for a key never changes, and a Sat entry's model is the exact model the
/// solver's deterministic ascending-order DFS would produce. lookup may
/// also answer Unsat for a query whose conjunct set is a superset of a
/// cached Unsat formula over identical domains (adding conjuncts only
/// removes models). ResourceOut is never stored — it depends on the
/// caller's node budget, not on the formula.
class VerdictStore {
public:
  virtual ~VerdictStore() = default;

  /// Returns true and fills \p Out when a verdict for (F, Domains) is
  /// known, exactly or by Unsat implication.
  virtual bool lookup(const FormulaPtr &F,
                      const std::vector<Interval> &Domains,
                      SolveResult &Out) = 0;

  /// Records a Sat/Unsat verdict (implementations drop ResourceOut and
  /// may drop anything else — the store is bounded and advisory).
  virtual void publish(const FormulaPtr &F,
                       const std::vector<Interval> &Domains,
                       const SolveResult &R) = 0;
};

/// Bounded-domain solver with DFS + interval pruning.
class Solver {
public:
  /// Declares a variable with inclusive domain [Lo, Hi]; returns its id.
  VarId declareVar(int64_t Lo, int64_t Hi);

  /// Conjoins \p F onto the constraint store.
  void addConstraint(FormulaPtr F);

  /// Adds a blocking clause excluding value \p V for variable \p Var
  /// (the paper's "kappa != sigma[kappa]" strengthening, Fig. 14 line 8).
  void blockValue(VarId Var, int64_t V);

  /// Opens a backtracking frame: constraints added after push() are
  /// retracted by the matching pop(). Variables are session-scoped, not
  /// frame-scoped — declare them before the first push. This is what
  /// lets one session check many examples against a shared constraint
  /// prefix (declare once, push/pop per example).
  void push();
  void pop();

  /// Attaches a cross-run verdict store (nullptr detaches). Borrowed,
  /// thread-safe, must outlive the solver's solve calls.
  void setStore(VerdictStore *S) { Store = S; }

  /// Searches for a model. \p NodeBudget bounds the number of DFS nodes
  /// (0 = unlimited); exceeding it yields ResourceOut. With a store
  /// attached, the canonical query is looked up first (a hit skips the
  /// search entirely) and a completed verdict is published back.
  SolveResult solve(uint64_t NodeBudget = 0);

  /// Number of DFS nodes visited by the last solve call.
  uint64_t lastSearchNodes() const { return SearchNodes; }

  /// DFS searches actually executed across this solver's lifetime (store
  /// hits do not run one) — the honest "smt_solves" figure.
  uint64_t solves() const { return Solves; }

  /// solve() calls answered by the attached verdict store.
  uint64_t storeHits() const { return StoreHits; }

  unsigned numVars() const { return static_cast<unsigned>(Domains.size()); }

private:
  bool dfs(std::vector<Interval> &Domains, unsigned Depth, Model &Out,
           uint64_t NodeBudget, bool &OutOfBudget);

  std::vector<Interval> Domains;
  std::vector<FormulaPtr> Constraints;
  std::vector<size_t> Frames; ///< constraint count at each push()
  VerdictStore *Store = nullptr;
  uint64_t SearchNodes = 0;
  uint64_t Solves = 0;
  uint64_t StoreHits = 0;
};

} // namespace regel::smt

#endif // REGEL_SMT_SOLVER_H
