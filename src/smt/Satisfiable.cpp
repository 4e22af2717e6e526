//===- smt/Satisfiable.cpp ------------------------------------------------===//

#include "smt/Satisfiable.h"

#include <cassert>

using namespace regel::smt;

namespace {

struct Search {
  const Formula &F;
  uint64_t NodeBudget;
  uint64_t Nodes = 0;
  bool OutOfBudget = false;

  /// True when some completion of \p Work satisfies F; false with
  /// OutOfBudget set when the node budget runs out first.
  bool dfs(std::vector<Interval> &Work) {
    if (++Nodes > NodeBudget && NodeBudget) {
      OutOfBudget = true;
      return false;
    }
    // Three-valued pruning: definitely violated stops this subtree;
    // definitely satisfied means any completion works.
    Tri T = F.eval(Work);
    if (T != Tri::Unknown)
      return T == Tri::True;

    // Branch on the first unassigned variable (declaration order keeps
    // the symbolic integers of the regex in left-to-right order).
    size_t Var = 0;
    while (Var < Work.size() && Work[Var].isPoint())
      ++Var;
    if (Var == Work.size()) {
      // Fully assigned but still Unknown: cannot happen with exact point
      // intervals, but guard against it.
      std::vector<int64_t> Point;
      for (const Interval &I : Work)
        Point.push_back(I.Lo);
      return F.evalPoint(Point);
    }
    const Interval Saved = Work[Var];
    for (int64_t V = Saved.Lo; V <= Saved.Hi && !OutOfBudget; ++V) {
      Work[Var] = {V, V};
      if (dfs(Work))
        return true;
    }
    Work[Var] = Saved;
    return false;
  }
};

} // namespace

std::optional<bool> regel::smt::satisfiable(
    const FormulaPtr &F, const std::vector<Interval> &Domains,
    uint64_t NodeBudget) {
  assert(F && "null formula");
  for ([[maybe_unused]] const Interval &D : Domains)
    assert(D.Lo >= 0 && D.Lo <= D.Hi && D.Hi < Infinity &&
           "finite domain required");
  Search S{*F, NodeBudget};
  std::vector<Interval> Work = Domains;
  if (S.dfs(Work))
    return true;
  if (S.OutOfBudget)
    return std::nullopt;
  return false;
}
