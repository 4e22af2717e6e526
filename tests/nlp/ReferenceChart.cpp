//===- tests/nlp/ReferenceChart.cpp - Frozen chart parser -----------------===//

#include "ReferenceChart.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <unordered_map>
#include <unordered_set>

using namespace regel;
using namespace regel::nlp;

namespace {

/// dotFeatures of V with Delta added to feature Id, as the chart summed
/// skip extensions before early rejection.
double dotFeaturesWith(const FeatureVec &V, uint32_t Id, float Delta,
                       const std::vector<double> &Weights) {
  double Sum = 0;
  auto Term = [&](uint32_t I, float Val) {
    if (I < Weights.size())
      Sum += Weights[I] * Val;
  };
  bool Added = false;
  for (const auto &[I, Val] : V) {
    if (!Added && Id <= I) {
      Added = true;
      if (Id == I) {
        Term(I, Val + Delta);
        continue;
      }
      Term(Id, Delta);
    }
    Term(I, Val);
  }
  if (!Added)
    Term(Id, Delta);
  return Sum;
}

/// Fills chart cells one at a time, deduplicating each cell's derivations
/// by their full (category, semantics) identity with best-score wins. A
/// parse builds its cells one after another and never writes a finished
/// cell again, so one builder (and one index) serves them all.
class FrozenCellBuilder {
public:
  /// Bucket hash of a derivation's identity. Identity is always the full
  /// (category, structural semantics) pair; the hash only picks buckets,
  /// so tests can inject a degenerate one to pin that. Null selects
  /// Derivation::keyHash.
  using HashFn = size_t (*)(const Derivation &);

  explicit FrozenCellBuilder(HashFn H = nullptr)
      : Index(0, SlotIdentity{this, H}, SlotIdentity{this, H}) {}

  // The index's functors point back at this builder.
  FrozenCellBuilder(const FrozenCellBuilder &) = delete;
  FrozenCellBuilder &operator=(const FrozenCellBuilder &) = delete;

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
    const FrozenCellBuilder *B;
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

class ChartSession {
public:
  ChartSession(const Grammar &G, const FeatureSpace &FS,
               const std::vector<Token> &Tokens,
               const std::vector<double> &Weights, const ParserConfig &Cfg)
      : G(G), FS(FS), Tokens(Tokens), Weights(Weights), Cfg(Cfg) {
    N = static_cast<unsigned>(Tokens.size());
    Chart.resize(static_cast<size_t>(N + 1) * (N + 1));
    for (const Rule &R : G.rules()) {
      assert((R.Rhs.size() != 1 || R.Rhs[0] != R.Lhs) &&
             "a unary rule must change the category (see buildCell)");
      RulesByFirst[R.Rhs[0]].push_back(&R);
    }
  }

  std::vector<Derivation> run() {
    if (N == 0)
      return {};
    seedLexical();
    for (unsigned Len = 1; Len <= N; ++Len)
      for (unsigned I = 0; I + Len <= N; ++I)
        buildCell(I, I + Len);
    std::vector<Derivation> Roots = std::move(cell(0, N).ByCat[CatRoot]);
    std::sort(Roots.begin(), Roots.end(),
              [](const Derivation &A, const Derivation &B) {
                return A.Score > B.Score;
              });
    return Roots;
  }

private:
  ChartCell &cell(unsigned I, unsigned J) { return Chart[I * (N + 1) + J]; }

  double scoreOf(const FeatureVec &V) const { return dotFeatures(V, Weights); }

  /// Lexical pass: phrases of lemmas, number tokens and quoted literals.
  void seedLexical() {
    Lexical.assign(static_cast<size_t>(N + 1) * (N + 1), {});
    for (unsigned I = 0; I < N; ++I) {
      for (unsigned J = I + 1; J <= N && J - I <= G.maxPhraseLen(); ++J) {
        std::string Phrase;
        for (unsigned K = I; K < J; ++K) {
          if (K > I)
            Phrase.push_back(' ');
          Phrase += Tokens[K].Lemma;
        }
        if (const std::vector<LexEntry> *Entries = G.lookup(Phrase)) {
          for (const LexEntry &E : *Entries) {
            Derivation D;
            D.Category = E.Category;
            D.Val = E.Val;
            addFeature(D.Features, FS.lexFeature(E.Category), 1.0f);
            D.Score = scoreOf(D.Features);
            Lexical[I * (N + 1) + J].push_back(std::move(D));
          }
        }
      }
      const Token &T = Tokens[I];
      if (T.Kind == TokenKind::Number) {
        Derivation D;
        D.Category = CatInt;
        D.Val = SemValue::intval(T.Value);
        addFeature(D.Features, FS.lexFeature(CatInt), 1.0f);
        D.Score = scoreOf(D.Features);
        Lexical[I * (N + 1) + (I + 1)].push_back(std::move(D));
      }
      if (T.Kind == TokenKind::Quoted && !T.Literal.empty()) {
        bool Ok = true;
        std::vector<RegexPtr> Parts;
        for (char C : T.Literal) {
          unsigned char U = static_cast<unsigned char>(C);
          if (U < MinAlphabetChar || U > MaxAlphabetChar) {
            Ok = false;
            break;
          }
          Parts.push_back(Regex::literal(C));
        }
        if (Ok) {
          Derivation D;
          D.Category = CatConst;
          D.Val = SemValue::regex(Regex::concatAll(Parts));
          addFeature(D.Features, FS.lexFeature(CatConst), 1.0f);
          D.Score = scoreOf(D.Features);
          Lexical[I * (N + 1) + (I + 1)].push_back(std::move(D));
        }
      }
    }
  }

  /// Applies \p R to \p Kids and offers the result to the open cell. The
  /// merged features live in Scratch until the cell keeps the item; the
  /// score is dotFeatures over exactly that merged vector, so it matches
  /// (bit for bit) the score of the vector the cell stores.
  void tryApply(const Rule &R, std::initializer_list<const Derivation *> Kids,
                unsigned SpanLen) {
    Vals.clear();
    for (const Derivation *K : Kids)
      Vals.push_back(&K->Val);
    std::optional<SemValue> Res = R.Apply(Vals);
    if (!Res)
      return;
    const Derivation *const *K = Kids.begin();
    switch (Kids.size()) {
    case 1:
      Scratch = K[0]->Features;
      break;
    case 2:
      mergeFeaturesInto(Scratch, K[0]->Features, K[1]->Features);
      break;
    default:
      mergeFeaturesInto(MergeTmp, K[0]->Features, K[1]->Features);
      mergeFeaturesInto(Scratch, MergeTmp, K[2]->Features);
      break;
    }
    uint32_t RuleIdx = static_cast<uint32_t>(&R - G.rules().data());
    addFeature(Scratch, FS.ruleFeature(RuleIdx), 1.0f);
    addFeature(Scratch, FS.spanFeature(R.Lhs, SpanLen), 1.0f);
    Derivation D;
    D.Category = R.Lhs;
    D.Val = std::move(*Res);
    D.Score = scoreOf(Scratch);
    Builder.offer(D, D.Score, [this, &D] {
      D.Features = Scratch;
      return std::move(D);
    });
  }

  void buildCell(unsigned I, unsigned J) {
    ChartCell &C = cell(I, J);
    Builder.start(C);
    unsigned Len = J - I;

    // Skip-extension: inherit from the two sub-spans one token shorter,
    // firing the skipped-token feature. The score adds the skip feature
    // inside the dot product, and the extended item is built only when
    // the cell keeps it.
    if (Len >= 2) {
      const uint32_t Skip = FS.skipFeature();
      for (const ChartCell *From : {&cell(I, J - 1), &cell(I + 1, J)})
        for (const auto &Bucket : From->ByCat)
          for (const Derivation &D : Bucket) {
            const double Score =
                dotFeaturesWith(D.Features, Skip, 1.0f, Weights);
            Builder.offer(D, Score, [&D, Skip, Score] {
              Derivation E;
              E.Category = D.Category;
              E.Val = D.Val;
              E.Features.reserve(D.Features.size() + 1);
              E.Features = D.Features;
              addFeature(E.Features, Skip, 1.0f);
              E.Score = Score;
              return E;
            });
          }
    }

    // Lexical derivations covering this exact span.
    for (const Derivation &D : Lexical[I * (N + 1) + J])
      Builder.offer(D, D.Score, [&D] { return D; });

    // Binary and ternary composition over exact adjacent splits.
    for (unsigned K = I + 1; K < J; ++K) {
      ChartCell &Left = cell(I, K);
      for (auto &[FirstCat, Rules] : RulesByFirst) {
        const std::vector<Derivation> &LeftBucket = Left.ByCat[FirstCat];
        if (LeftBucket.empty())
          continue;
        for (const Rule *R : Rules) {
          if (R->Rhs.size() == 2) {
            const auto &RightBucket = cell(K, J).ByCat[R->Rhs[1]];
            for (const Derivation &L : LeftBucket)
              for (const Derivation &Rt : RightBucket)
                tryApply(*R, {&L, &Rt}, Len);
            continue;
          }
          if (R->Rhs.size() == 3) {
            for (unsigned K2 = K + 1; K2 < J; ++K2) {
              const auto &MidBucket = cell(K, K2).ByCat[R->Rhs[1]];
              if (MidBucket.empty())
                continue;
              const auto &RightBucket = cell(K2, J).ByCat[R->Rhs[2]];
              for (const Derivation &L : LeftBucket)
                for (const Derivation &M : MidBucket)
                  for (const Derivation &Rt : RightBucket)
                    tryApply(*R, {&L, &M, &Rt}, Len);
            }
          }
        }
      }
    }

    // Unary closure (CC -> PROGRAM -> LIST -> SKETCH -> ROOT). No unary
    // rule keeps its category (see the constructor), so adding a result
    // never grows or rewrites the bucket being walked: its items can be
    // read in place.
    for (unsigned Round = 0; Round < 4; ++Round) {
      size_t Before = C.Count;
      for (unsigned Cat = 0; Cat < NumCats; ++Cat) {
        auto It = RulesByFirst.find(Cat);
        if (It == RulesByFirst.end())
          continue;
        size_t BucketSize = C.ByCat[Cat].size();
        for (size_t Idx = 0; Idx < BucketSize; ++Idx) {
          const Derivation &D = C.ByCat[Cat][Idx];
          for (const Rule *R : It->second)
            if (R->Rhs.size() == 1)
              tryApply(*R, {&D}, Len);
        }
      }
      if (C.Count == Before)
        break;
    }

    Builder.finish(Cfg.BeamPerCat);
  }

  const Grammar &G;
  const FeatureSpace &FS;
  const std::vector<Token> &Tokens;
  const std::vector<double> &Weights;
  const ParserConfig &Cfg;
  unsigned N;
  std::vector<ChartCell> Chart;
  FrozenCellBuilder Builder;
  /// tryApply's reused buffers: the children's values, and the merged
  /// feature vector (plus the ternary merge's intermediate).
  std::vector<const SemValue *> Vals;
  FeatureVec Scratch, MergeTmp;
  std::vector<std::vector<Derivation>> Lexical;
  std::unordered_map<uint16_t, std::vector<const Rule *>> RulesByFirst;
};

} // namespace

std::vector<Derivation> regel::nlp::reference::parseChart(
    const Grammar &G, const FeatureSpace &FS, const std::vector<Token> &Tokens,
    const std::vector<double> &Weights, const ParserConfig &Cfg) {
  std::vector<Token> Trimmed = Tokens;
  if (Trimmed.size() > Cfg.MaxTokens)
    Trimmed.resize(Cfg.MaxTokens);
  ChartSession Session(G, FS, Trimmed, Weights, Cfg);
  return Session.run();
}
