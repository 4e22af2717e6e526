//===- synth/Synthesizer.cpp ----------------------------------------------===//

#include "synth/Synthesizer.h"

#include "obs/Metrics.h"
#include "obs/Probe.h"
#include "obs/Trace.h"
#include "regex/Matcher.h"
#include "support/Clock.h"
#include "support/Timer.h"
#include "synth/Approximate.h"
#include "synth/Expand.h"
#include "synth/InferConstants.h"

#include <cctype>
#include <queue>
#include <unordered_set>

using namespace regel;

namespace {

/// Search-cost of one node. Negation/intersection are heavily penalized:
/// they rarely occur in intended regexes, and deprioritizing them both
/// speeds up the search and ranks natural solutions first.
unsigned nodeWeight(const PNodePtr &N) {
  switch (N->getKind()) {
  case PLabelKind::SketchLabel:
    return 2;
  case PLabelKind::LeafLabel:
    return N->leaf()->size();
  case PLabelKind::SymIntLabel:
  case PLabelKind::IntLabel:
    return 0;
  case PLabelKind::OpLabel:
    switch (N->op()) {
    case RegexKind::Not:
      return 8;
    case RegexKind::And:
      return 4;
    case RegexKind::KleeneStar:
      return 2;
    default:
      return 1;
    }
  }
  return 1;
}

unsigned costOf(const PNodePtr &N) {
  unsigned Total = nodeWeight(N);
  for (const PNodePtr &C : N->children())
    Total += costOf(C);
  return Total;
}

} // namespace

Synthesizer::Synthesizer(SynthConfig Cfg) : Cfg(std::move(Cfg)) {
  if (this->Cfg.Classes.empty())
    this->Cfg.Classes = SynthConfig::defaultClasses();
}

bool Synthesizer::checkConcrete(const RegexPtr &R, const Examples &E,
                                SynthStats &Stats) {
  ++Stats.ConcreteChecked;
  if (Cfg.UseSubsumption) {
    // Contains(r) failing a positive example implies StartsWith(r) and
    // EndsWith(r) fail one as well (Sec. 6).
    RegexKind K = R->getKind();
    if (K == RegexKind::StartsWith || K == RegexKind::EndsWith ||
        K == RegexKind::Contains) {
      if (ContainsFailed.count(R->getChild(0))) {
        ++Stats.SubsumptionSkips;
        return false;
      }
    }
    // RepeatAtLeast(r, k) failing the positives is monotone in k.
    if (K == RegexKind::RepeatAtLeast) {
      auto It = AtLeastFailed.find(R->getChild(0));
      if (It != AtLeastFailed.end() && R->getK1() >= It->second) {
        ++Stats.SubsumptionSkips;
        return false;
      }
    }
  }

  // Concrete candidates are mostly distinct; the memoized direct matcher
  // is cheap on the short example strings.
  DirectMatcher Matcher(R);
  bool AllPos = true;
  for (const std::string &S : E.Pos)
    if (!Matcher.matches(S)) {
      AllPos = false;
      break;
    }
  if (!AllPos) {
    if (Cfg.UseSubsumption) {
      if (R->getKind() == RegexKind::Contains)
        ContainsFailed.emplace(R->getChild(0), 1);
      if (R->getKind() == RegexKind::RepeatAtLeast) {
        auto It = AtLeastFailed.find(R->getChild(0));
        if (It == AtLeastFailed.end() || R->getK1() < It->second)
          AtLeastFailed[R->getChild(0)] = R->getK1();
      }
    }
    return false;
  }
  for (const std::string &S : E.Neg)
    if (Matcher.matches(S))
      return false;
  return true;
}

SynthResult Synthesizer::run(const SketchPtr &S, const Examples &E) {
  SynthResult Result;
  Stopwatch Watch(Cfg.TimeSource);
  Deadline Budget(Cfg.BudgetMs, Cfg.CancelFlag, Cfg.TimeSource);
  ContainsFailed.clear();
  AtLeastFailed.clear();
  // Instrumentation: SMT inference is timed around each inferConstants
  // call below. The probe's clock times spans on the same (possibly
  // virtual) timeline as the search budget.
  const bool TimeSmt =
      Cfg.Probe && Cfg.Probe->Clk &&
      (Cfg.Probe->SmtInferUs || Cfg.Probe->Trace);
  FeasibilityChecker Checker(E);
  Checker.setApproxMemo(Cfg.SharedApprox);

  // Augment the class pool with punctuation/symbol literals from the
  // examples so constants like <.> or <-> are reachable by pure search.
  // Alphanumerics are deliberately excluded: they are covered by the
  // predefined classes and would blow up the branching factor.
  std::vector<CharClass> Classes = Cfg.Classes;
  if (Cfg.AddLiteralsFromExamples) {
    std::unordered_set<char> Seen;
    auto addChars = [&](const std::vector<std::string> &Strs) {
      for (const std::string &Str : Strs)
        for (char C : Str) {
          unsigned char U = static_cast<unsigned char>(C);
          if (U < MinAlphabetChar || U > MaxAlphabetChar)
            continue;
          if (std::isalnum(U))
            continue;
          if (Seen.insert(C).second)
            Classes.push_back(CharClass::singleton(C));
        }
    };
    addChars(E.Pos);
    addChars(E.Neg);
  }

  // Priority worklist: smaller partial regexes (with a penalty per open
  // node) first; FIFO among equals keeps the search breadth-first-ish.
  struct QItem {
    unsigned Cost;
    uint64_t Seq;
    PartialRegex P;
  };
  struct QCmp {
    bool operator()(const QItem &A, const QItem &B) const {
      if (A.Cost != B.Cost)
        return A.Cost > B.Cost;
      return A.Seq > B.Seq;
    }
  };
  std::priority_queue<QItem, std::vector<QItem>, QCmp> Worklist;
  uint64_t Seq = 0;
  auto push = [&](PartialRegex P) {
    unsigned Cost = costOf(P.root());
    Worklist.push({Cost, Seq++, std::move(P)});
  };

  // Structural dedup of emitted solutions.
  std::unordered_set<RegexPtr, RegexPtrHash, RegexPtrEq> Emitted;
  bool Done = false;

  auto recordIfSolution = [&](RegexPtr R) {
    if (!checkConcrete(R, E, Result.Stats))
      return;
    if (!Emitted.insert(R).second)
      return;
    Result.Solutions.push_back(std::move(R));
    if (Result.Solutions.size() >= Cfg.TopK)
      Done = true;
  };

  // Structural dedup of queued partials (symmetric expansions can produce
  // identical trees through different paths). Keyed on the full tree: a
  // hash collision must not drop a distinct, possibly feasible partial.
  std::unordered_set<PNodePtr, PNodePtrHash, PNodePtrEq> SeenPartials;

  // Concrete partials are checked immediately (the check is cheap and
  // order-insensitive); open and symbolic partials are queued so the cost
  // ordering decides which symbolic regexes get constant inference first.
  auto process = [&](PartialRegex P) {
    if (P.isConcrete()) {
      recordIfSolution(P.toRegex());
      return;
    }
    if (SeenPartials.insert(P.root()).second)
      push(std::move(P));
  };

  process(PartialRegex::initial(S, Cfg.HoleDepth));

  while (!Worklist.empty() && !Done) {
    if (Budget.expired() || (Cfg.MaxPops && Result.Stats.Pops >= Cfg.MaxPops)) {
      Result.TimedOut = true;
      Result.Cancelled = Budget.cancelled();
      break;
    }
    PartialRegex P = Worklist.top().P;
    Worklist.pop();
    ++Result.Stats.Pops;

    if (P.isSymbolic()) {
      // SMT-guided inference of the integer constants (Sec. 4.2). Timed
      // as one unit: the thousands of individual solver formula
      // evaluations inside are far too frequent to time one by one.
      InferStats IS;
      const int64_t SmtStartUs = TimeSmt ? Cfg.Probe->Clk->nowUs() : 0;
      std::vector<RegexPtr> Concrete =
          inferConstants(P, E, Cfg, Checker, IS, &Budget);
      if (TimeSmt) {
        const int64_t SmtDurUs = Cfg.Probe->Clk->nowUs() - SmtStartUs;
        if (Cfg.Probe->SmtInferUs)
          Cfg.Probe->SmtInferUs->record(static_cast<uint64_t>(SmtDurUs));
        if (Cfg.Probe->Trace) {
          obs::Span S;
          S.Name = "smt_infer";
          S.Cat = "smt";
          S.StartUs = SmtStartUs;
          S.DurUs = SmtDurUs;
          S.Tid = Cfg.Probe->Tid;
          S.Args = {{"interval_evals", std::to_string(IS.IntervalEvals)},
                    {"solves", std::to_string(IS.SmtSolves)},
                    {"cache_hits", std::to_string(IS.SmtCacheHits)},
                    {"iterations", std::to_string(IS.Iterations)},
                    {"results", std::to_string(Concrete.size())}};
          Cfg.Probe->Trace->span(std::move(S));
        }
      }
      Result.Stats.SmtIntervalEvals += IS.IntervalEvals;
      Result.Stats.SmtSolves += IS.SmtSolves;
      Result.Stats.SmtCacheHits += IS.SmtCacheHits;
      Result.Stats.SmtUnsatShortCircuits += IS.UnsatShortCircuits;
      for (RegexPtr &R : Concrete) {
        recordIfSolution(std::move(R));
        if (Done)
          break;
      }
      continue;
    }

    // Expand one open node (Fig. 9 lines 10-14).
    auto Path = P.selectOpenNode();
    assert(Path && "worklist elements always have an open node");
    std::vector<PartialRegex> Expanded = expandNode(P, *Path, Cfg, Classes);
    Result.Stats.Expansions += Expanded.size();
    for (PartialRegex &PPrime : Expanded) {
      // For concrete candidates the approximations coincide with the
      // candidate itself, so Infeasible would duplicate the final check;
      // route them straight to checkConcrete (where the Sec. 6 subsumption
      // heuristics apply).
      if (!PPrime.isConcrete() && Cfg.UseApprox &&
          Checker.infeasible(PPrime)) {
        ++Result.Stats.PrunedInfeasible;
        continue;
      }
      process(std::move(PPrime));
      if (Done)
        break;
    }
  }

  Result.Exhausted = Worklist.empty() && !Result.TimedOut &&
                     Result.Solutions.size() < Cfg.TopK;
  Result.Stats.TimeMs = Watch.elapsedMs();
  return Result;
}
