//===- nlp/ChartParser.h - Bottom-up chart parsing with skipping -*- C++ -*-//
//
// Part of the Regel reproduction. The SEMPRE-style chart parser: lexical
// matches seed spans; compositional rules (arity 1-3) combine adjacent
// derivations bottom-up with dynamic programming; arbitrary words can be
// skipped (each skip extends a derivation's span by one token and fires a
// skip feature); every cell keeps a score beam.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_NLP_CHARTPARSER_H
#define REGEL_NLP_CHARTPARSER_H

#include "nlp/Derivation.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace regel::nlp {

/// Parser configuration.
struct ParserConfig {
  unsigned BeamPerCat = 14; ///< derivations kept per category per cell
  unsigned MaxTokens = 44;  ///< inputs are truncated beyond this
};

/// One chart cell: derivations bucketed by category.
struct ChartCell {
  std::vector<std::vector<Derivation>> ByCat{NumCats};
  size_t Count = 0;
};

/// Fills chart cells one at a time, deduplicating each cell's derivations
/// by their full (category, semantics) identity with best-score wins. A
/// parse builds its cells one after another and never writes a finished
/// cell again, so one builder (and one index) serves them all.
class CellBuilder {
public:
  /// Bucket hash of a derivation's identity. Identity is always the full
  /// (category, structural semantics) pair; the hash only picks buckets,
  /// so tests can inject a degenerate one to pin that. Null selects
  /// Derivation::keyHash.
  using HashFn = size_t (*)(const Derivation &);

  explicit CellBuilder(HashFn H = nullptr)
      : Index(0, SlotIdentity{this, H}, SlotIdentity{this, H}) {}

  // The index's functors point back at this builder.
  CellBuilder(const CellBuilder &) = delete;
  CellBuilder &operator=(const CellBuilder &) = delete;

  /// Starts filling the empty cell \p C.
  void start(ChartCell &C) { Cell = &C; }

  /// Adds \p D to the cell, or keeps the better-scored of it and the item
  /// with the same identity already there.
  void add(Derivation D) {
    offer(D, D.Score, [&D] { return std::move(D); });
  }

  /// Offers an item with \p Key's identity (category and semantics) and
  /// score \p Score; \p Make builds the item, with that score, only when
  /// the cell keeps it (a new identity, or a better score than the
  /// holder). The many items a cell drops thus never copy a value or
  /// allocate a feature vector. \p Key is not read after Make runs.
  template <typename MakeItem>
  void offer(const Derivation &Key, double Score, MakeItem &&Make) {
    const uint16_t C = Key.Category;
    Probe = &Key;
    auto It = Index.find({C, ProbeIdx});
    Probe = nullptr;
    if (It != Index.end()) {
      Derivation &Old = Cell->ByCat[It->Category][It->Idx];
      if (Old.Score < Score)
        Old = Make();
      return;
    }
    Cell->ByCat[C].push_back(Make());
    Index.insert({C, static_cast<uint32_t>(Cell->ByCat[C].size() - 1)});
    ++Cell->Count;
  }

  /// Applies the beam per category, so junk in one category can never
  /// flush another category's derivations out of the cell, and ends it.
  /// Each bucket gives back the capacity its pre-beam candidates grew:
  /// the chart keeps every cell until the parse ends, so spare capacity
  /// would otherwise outlive the cell's construction in all of them.
  void finish(unsigned BeamPerCat) {
    size_t Kept = 0;
    for (auto &Bucket : Cell->ByCat) {
      if (Bucket.size() > BeamPerCat) {
        std::stable_sort(Bucket.begin(), Bucket.end(),
                         [](const Derivation &A, const Derivation &B) {
                           return A.Score > B.Score;
                         });
        Bucket.resize(BeamPerCat);
      }
      if (Bucket.capacity() > Bucket.size())
        Bucket.shrink_to_fit();
      Kept += Bucket.size();
    }
    Cell->Count = Kept;
    Cell = nullptr;
    Index.clear();
  }

private:
  /// A derivation held in the cell: (category, index in its bucket), or
  /// the derivation add() is probing for (Idx == ProbeIdx). The index
  /// hashes and compares the derivations the slots name, so it keys on
  /// the full identity without copying it.
  struct Slot {
    uint16_t Category;
    uint32_t Idx;
  };
  static constexpr uint32_t ProbeIdx = UINT32_MAX;
  const Derivation &at(Slot S) const {
    return S.Idx == ProbeIdx ? *Probe : Cell->ByCat[S.Category][S.Idx];
  }

  struct SlotIdentity {
    const CellBuilder *B;
    HashFn Fn;
    size_t operator()(Slot S) const {
      const Derivation &D = B->at(S);
      return Fn ? Fn(D) : D.keyHash();
    }
    bool operator()(Slot A, Slot B2) const {
      return A.Category == B2.Category && B->at(A).Val == B->at(B2).Val;
    }
  };

  ChartCell *Cell = nullptr;
  const Derivation *Probe = nullptr;
  std::unordered_set<Slot, SlotIdentity, SlotIdentity> Index;
};

/// Parses \p Tokens under \p Weights; returns the root-category
/// derivations over the full span, best score first.
std::vector<Derivation> parseChart(const Grammar &G, const FeatureSpace &FS,
                                   const std::vector<Token> &Tokens,
                                   const std::vector<double> &Weights,
                                   const ParserConfig &Cfg = ParserConfig());

} // namespace regel::nlp

#endif // REGEL_NLP_CHARTPARSER_H
