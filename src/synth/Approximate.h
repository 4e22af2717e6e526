//===- synth/Approximate.h - Over/under-approximation (Figs. 11/12) -*-C++-*-//
//
// Part of the Regel reproduction. Computes, for a partial regex P, a pair
// of concrete regexes (o, u) such that
//   (1) every string matched by some completion of P is matched by o, and
//   (2) every string matched by u is matched by every completion of P.
// A partial regex is infeasible (and can be pruned) when o rejects a
// positive example or u accepts a negative example.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SYNTH_APPROXIMATE_H
#define REGEL_SYNTH_APPROXIMATE_H

#include "support/ShardedLru.h"
#include "synth/PartialRegex.h"

#include <unordered_map>

namespace regel {

/// An over/under-approximation pair.
struct Approx {
  RegexPtr Over;
  RegexPtr Under;
};

/// Top element: KleeneStar(<any>) accepts every string.
RegexPtr topRegex();

/// Bottom element: the empty language.
RegexPtr botRegex();

/// Key of the cross-run approximation store. (sketch, depth, widened) is
/// example-independent, so its approximation can be shared across
/// synthesis runs, jobs, and threads.
struct ApproxKey {
  SketchPtr S;
  unsigned Depth;
  bool WithClasses;
};

/// Depth and the widened flag are folded through mix64 rather than XORed
/// in raw: consecutive depths must not perturb only the low bits that
/// pick the shard.
struct ApproxKeyHash {
  size_t operator()(const ApproxKey &K) const {
    uint64_t Fields =
        (static_cast<uint64_t>(K.Depth) << 1) | (K.WithClasses ? 1u : 0u);
    return static_cast<size_t>(
        mix64(static_cast<uint64_t>(K.S->hash()) ^ mix64(Fields)));
  }
};

struct ApproxKeyEq {
  bool operator()(const ApproxKey &A, const ApproxKey &B) const {
    return A.Depth == B.Depth && A.WithClasses == B.WithClasses &&
           sketchEquals(A.S, B.S);
  }
};

/// The cross-run (sketch, depth, widened) -> approximation store.
using ShardedApproxStore =
    ShardedLru<ApproxKey, Approx, ApproxKeyHash, ApproxKeyEq>;

/// Approximates an h-sketch under depth budget \p Depth (Fig. 12);
/// \p WithClasses marks the widened hole variant (its under-approximation
/// collapses to bottom). With \p Memo set, every sketch node consulted
/// during the recursion is served from / published to the store.
Approx approximateSketch(const SketchPtr &S, unsigned Depth, bool WithClasses,
                         ShardedApproxStore *Memo = nullptr);

/// Approximates a partial regex (Fig. 11).
Approx approximatePartial(const PNodePtr &N,
                          ShardedApproxStore *Memo = nullptr);

/// The Infeasible check of Fig. 9 line 13 with verdict memoization:
/// returns true when the approximations prove a partial regex cannot be
/// completed consistently with the examples. One instance per synthesis
/// run; sibling expansions share most of their approximations, so the
/// per-regex verdicts (over accepts all positives / under rejects all
/// negatives) are memoized. Membership runs through the direct matcher:
/// approximation regexes are mostly checked against a handful of short
/// examples, where compiling a DFA per regex costs far more than it saves.
class FeasibilityChecker {
public:
  /// Hash for the verdict memos. Identity is always full structural
  /// equality (RegexPtrEq); the hash only picks buckets, so tests can
  /// inject a degenerate one to pin that. Null selects Regex::hash.
  using HashFn = size_t (*)(const RegexPtr &);

  explicit FeasibilityChecker(const Examples &E, HashFn H = nullptr)
      : E(E), OverVerdict(0, MemoHash{H}), UnderVerdict(0, MemoHash{H}) {}

  /// Attaches a cross-run sketch-approximation memo (may be nullptr).
  void setApproxMemo(ShardedApproxStore *M) { Memo = M; }

  /// True when \p P is provably inconsistent with the examples.
  bool infeasible(const PartialRegex &P);

  uint64_t checksRun() const { return Checks; }

private:
  struct MemoHash {
    HashFn Fn;
    size_t operator()(const RegexPtr &R) const {
      return Fn ? Fn(R) : R->hash();
    }
  };
  using VerdictMemo = std::unordered_map<RegexPtr, bool, MemoHash, RegexPtrEq>;

  bool overAcceptsAllPos(const RegexPtr &Over);
  bool underRejectsAllNeg(const RegexPtr &Under);

  const Examples &E;
  ShardedApproxStore *Memo = nullptr;
  VerdictMemo OverVerdict;
  VerdictMemo UnderVerdict;
  uint64_t Checks = 0;
};

} // namespace regel

#endif // REGEL_SYNTH_APPROXIMATE_H
