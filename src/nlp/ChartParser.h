//===- nlp/ChartParser.h - Bottom-up chart parsing with skipping -*- C++ -*-//
//
// Part of the Regel reproduction. The SEMPRE-style chart parser: lexical
// matches seed spans; compositional rules (arity 1-3) combine adjacent
// derivations bottom-up with dynamic programming; arbitrary words can be
// skipped (each skip extends a derivation's span by one token and fires a
// skip feature); every cell keeps a score beam.
//
// Scores. Each parse rounds the weights onto a grid of multiples of 2^-32
// (Features.h), on which every score is an exact sum: a skip extension
// scores its source plus the skip weight, and a composition or unary
// application scores its children's scores plus the weights of its rule
// and span features, bit for bit what dotFeatures over its merged vector
// gives. Feature vectors are merged only for items a cell keeps.
//
// Early rejection. A binary or ternary composition is scored before
// Rule::Apply runs, and dropped there, never applied, when it is beaten in
// its own category: BeamPerCat distinct identities of that category
// already score strictly higher (a tie is kept: an equal-score item that
// arrived earlier wins the beam's stable sort), and the bucket holds at
// least one item more than that (so a drop never decides whether it is
// cut). The unary closure reads pre-beam items, so in a build without
// rejection the dropped item would still offer its images under every
// chain of unary rules (CC/Const/ConstSet -> PROGRAM -> LIST -> SKETCH ->
// ROOT, DECNUM -> SKETCH). Each image's exact score is recorded with its
// category, and when the cell ends each such category must be over the
// beam with its BeamPerCat-th best distinct score strictly above the best
// recorded image there (CellBuilder::imagesBeaten): no image of a drop
// could then have reached a beam.
//
// A drop's identity is unknown, yet in the plain algorithm it would hold
// a slot, and slots break ties. So the cell rebuilds itself without
// dropping whenever a drop could have changed what its beams keep:
//   * a category a dropped image would have reached is not over the beam,
//     or its cut does not beat that image;
//   * two items that arrived after a drop touching their category tie in
//     score at or above its cut (the plain algorithm may order them
//     otherwise);
//   * a closure round changes a category it already walked: whether the
//     next round runs depends on this one inserting a new identity, which
//     a drop's identity could have made differ (the first round is proved
//     by an insertion into a category no dropped composition belongs to);
//   * an item a drop could have replaced places a closure image that is
//     not beaten;
//   * two closure offers of one identity tie with different features.
// Kept items, their features, scores and order are therefore exactly those
// of the plain algorithm, which tests/nlp/ReferenceChart keeps as a frozen
// copy (ChartRejectionTest and fuzz/chart_fuzz.cpp compare the two on grid
// weights).
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_NLP_CHARTPARSER_H
#define REGEL_NLP_CHARTPARSER_H

#include "nlp/Derivation.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <utility>
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
///
/// For early rejection it also keeps, per category, the scores of the
/// BeamPerCat best distinct identities so far (a replacement updates its
/// identity's score, it never takes a second place), and per item the
/// bookkeeping the parser needs to prove that the drops it made did not
/// change the beam (see the file comment). Offers and drops are stamped
/// in arrival order.
class CellBuilder {
public:
  /// Bucket hash of a derivation's identity. Identity is always the full
  /// (category, structural semantics) pair; the hash only picks buckets,
  /// so tests can inject a degenerate one to pin that. Null selects
  /// Derivation::keyHash.
  using HashFn = size_t (*)(const Derivation &);

  /// Per-item bookkeeping.
  struct Item {
    uint32_t Inserted; ///< stamp of the offer that inserted it
    uint32_t LastSet;  ///< stamp of the offer that set its derivation
    bool Suspect;      ///< see suspect()
    bool Fresh;        ///< see takeFresh()
  };

  static constexpr uint32_t NoStamp = UINT32_MAX;

  /// What an offer did to the cell.
  enum class Outcome : uint8_t {
    Inserted, ///< a new identity
    Replaced, ///< a better score for an identity already there
    Tied,     ///< the identity is there with exactly this score
    Dropped,  ///< the identity is there with a better score
  };

  explicit CellBuilder(HashFn H = nullptr)
      : Index(0, SlotIdentity{this, H}, SlotIdentity{this, H}) {}

  // The index's functors point back at this builder.
  CellBuilder(const CellBuilder &) = delete;
  CellBuilder &operator=(const CellBuilder &) = delete;

  /// Starts filling the empty cell \p C, whose beam keeps \p BeamPerCat
  /// items per category.
  void start(ChartCell &C, unsigned BeamPerCat) {
    Cell = &C;
    Beam = BeamPerCat;
    Clock = 0;
    ClosureStart = NoStamp;
    for (CatState &S : Cats) {
      S.Top.clear();
      S.Items.clear();
      S.FirstTouch = NoStamp;
      S.MaxRejected = -std::numeric_limits<double>::infinity();
    }
  }

  /// Adds \p D to the cell, or keeps the better-scored of it and the item
  /// with the same identity already there.
  Outcome add(Derivation D) {
    return offer(D, D.Score, [&D] { return std::move(D); });
  }

  /// Offers an item with \p Key's identity (category and semantics) and
  /// score \p Score; \p Make builds the item, with that score, only when
  /// the cell keeps it (a new identity, or a better score than the
  /// holder). The many items a cell drops thus never copy a value or
  /// allocate a feature vector. \p Key is not read after Make runs.
  /// lastItem() then names the item of Key's identity.
  template <typename MakeItem>
  Outcome offer(const Derivation &Key, double Score, MakeItem &&Make) {
    const uint16_t C = Key.Category;
    const uint32_t Stamp = Clock++;
    Probe = &Key;
    auto It = Index.find({C, ProbeIdx});
    Probe = nullptr;
    if (It != Index.end()) {
      Last = *It;
      Derivation &Old = Cell->ByCat[It->Category][It->Idx];
      if (Old.Score > Score)
        return Outcome::Dropped;
      if (Old.Score == Score)
        return Outcome::Tied;
      Old = Make();
      Item &Info = Cats[C].Items[It->Idx];
      Info.LastSet = Stamp;
      Info.Fresh = true;
      raise(C, It->Idx, Score);
      return Outcome::Replaced;
    }
    Cell->ByCat[C].push_back(Make());
    const uint32_t Idx = static_cast<uint32_t>(Cell->ByCat[C].size() - 1);
    Index.insert({C, Idx});
    Last = {C, Idx};
    Cats[C].Items.push_back({Stamp, Stamp, false, true});
    raise(C, Idx, Score);
    ++Cell->Count;
    return Outcome::Inserted;
  }

  /// The item the last offer inserted, replaced or found.
  Derivation &lastItem() { return Cell->ByCat[Last.Category][Last.Idx]; }

  /// Marks the start of the unary closure.
  void startClosure() { ClosureStart = Clock; }

  /// Whether the last item's derivation was set by an offer of the unary
  /// closure.
  bool lastSetInClosure() const {
    return Cats[Last.Category].Items[Last.Idx].LastSet >= ClosureStart;
  }

  /// Whether an item of category \p C scoring \p Score could be dropped
  /// without changing whether, or how, the bucket's beam cuts: the bucket
  /// holds more than BeamPerCat items, and BeamPerCat distinct identities
  /// among them score strictly higher.
  bool beaten(Cat C, double Score) const {
    return full(C) && Score < Cats[C].Top.back().first;
  }

  /// The score beaten() compares with; only meaningful when full(C).
  double threshold(Cat C) const { return Cats[C].Top.back().first; }

  /// Whether beaten() can hold for some score in category \p C.
  bool full(Cat C) const {
    return Cell->ByCat[C].size() > Beam && Cats[C].Top.size() == Beam;
  }

  /// Stamps an offer that is dropped unapplied.
  uint32_t stampDrop() { return Clock++; }

  /// Records that the offer dropped at \p Stamp had an image in category
  /// \p C scoring \p Score.
  void rejected(Cat C, double Score, uint32_t Stamp) {
    CatState &S = Cats[C];
    S.FirstTouch = std::min(S.FirstTouch, Stamp);
    S.MaxRejected = std::max(S.MaxRejected, Score);
  }

  /// Whether a dropped offer could have had an image in category \p C.
  bool touched(Cat C) const { return Cats[C].FirstTouch != NoStamp; }

  /// Whether the final beam of every touched category cuts every image a
  /// dropped offer recorded there: the category is over the beam, and its
  /// BeamPerCat-th best distinct score is strictly above the best such
  /// image's. Call before finish().
  bool imagesBeaten() const {
    for (unsigned C = 0; C < NumCats; ++C)
      if (touched(static_cast<Cat>(C)) &&
          !beaten(static_cast<Cat>(C), Cats[C].MaxRejected))
        return false;
    return true;
  }

  /// Whether item \p Idx of category \p C may hold another derivation than
  /// a build without rejection would: a dropped offer of the same identity
  /// could have replaced it, or it came from such an item. Such items are
  /// beaten; the parser checks that their closure images are too.
  bool suspect(Cat C, uint32_t Idx) const {
    const CatState &S = Cats[C];
    return S.Items[Idx].Suspect ||
           (S.FirstTouch != NoStamp &&
            Cell->ByCat[C][Idx].Score <= S.MaxRejected);
  }
  void setSuspect(bool Flag) {
    Cats[Last.Category].Items[Last.Idx].Suspect = Flag;
  }

  /// Whether item \p Idx of category \p C was inserted or replaced since
  /// the last call for it; clears the mark. The unary closure walks only
  /// such items again: an unchanged item would offer exactly what it
  /// offered before, which changes nothing.
  bool takeFresh(Cat C, uint32_t Idx) {
    return std::exchange(Cats[C].Items[Idx].Fresh, false);
  }

  /// Whether two items of touched category \p C that arrived after the
  /// category's first drop tie in score at or above its cut. Their order
  /// in a build without rejection is not known: a later offer of a dropped
  /// identity would have kept the dropped one's earlier slot, and slots
  /// order ties.
  bool lateTie(Cat C) {
    const CatState &S = Cats[C];
    if (S.FirstTouch == NoStamp)
      return false;
    const double Cut = S.Top.back().first;
    const std::vector<Derivation> &Bucket = Cell->ByCat[C];
    LateScores.clear();
    for (uint32_t I = 0; I < Bucket.size(); ++I)
      if (S.Items[I].Inserted >= S.FirstTouch && Bucket[I].Score >= Cut)
        LateScores.push_back(Bucket[I].Score);
    std::sort(LateScores.begin(), LateScores.end());
    return std::adjacent_find(LateScores.begin(), LateScores.end()) !=
           LateScores.end();
  }

  /// Applies the beam per category, so junk in one category can never
  /// flush another category's derivations out of the cell, and ends it
  /// (ties go to the earlier arrival).
  /// Each bucket gives back the capacity its pre-beam candidates grew:
  /// the chart keeps every cell until the parse ends, so spare capacity
  /// would otherwise outlive the cell's construction in all of them.
  void finish() {
    size_t Kept = 0;
    for (auto &Bucket : Cell->ByCat) {
      if (Bucket.size() > Beam) {
        std::stable_sort(Bucket.begin(), Bucket.end(),
                         [](const Derivation &A, const Derivation &B) {
                           return A.Score > B.Score;
                         });
        Bucket.resize(Beam);
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

  struct CatState {
    /// The BeamPerCat best (score, item index) pairs, best first.
    std::vector<std::pair<double, uint32_t>> Top;
    std::vector<Item> Items;
    /// Stamp of the first drop touching this category, and the best score
    /// a dropped offer's image here had.
    uint32_t FirstTouch = NoStamp;
    double MaxRejected = -std::numeric_limits<double>::infinity();
  };

  /// Item \p Idx of category \p C now scores \p Score (it is new or just
  /// improved): updates the category's best-distinct list.
  void raise(uint16_t C, uint32_t Idx, double Score) {
    auto &Top = Cats[C].Top;
    auto It = std::find_if(Top.begin(), Top.end(),
                           [Idx](const auto &P) { return P.second == Idx; });
    if (It == Top.end()) {
      if (Top.size() == Beam && Score <= Top.back().first)
        return;
      if (Top.size() < Beam)
        Top.emplace_back();
      It = Top.end() - 1;
      It->second = Idx;
    }
    It->first = Score;
    for (; It != Top.begin() && (It - 1)->first < It->first; --It)
      std::iter_swap(It, It - 1);
  }

  ChartCell *Cell = nullptr;
  const Derivation *Probe = nullptr;
  std::unordered_set<Slot, SlotIdentity, SlotIdentity> Index;
  unsigned Beam = 0;
  uint32_t Clock = 0;
  uint32_t ClosureStart = NoStamp;
  Slot Last{0, 0};
  std::array<CatState, NumCats> Cats;
  std::vector<double> LateScores; ///< lateTie()'s buffer
};

/// Parses \p Tokens under \p Weights; returns the root-category
/// derivations over the full span, best score first.
std::vector<Derivation> parseChart(const Grammar &G, const FeatureSpace &FS,
                                   const std::vector<Token> &Tokens,
                                   const std::vector<double> &Weights,
                                   const ParserConfig &Cfg = ParserConfig());

} // namespace regel::nlp

#endif // REGEL_NLP_CHARTPARSER_H
