//===- nlp/ChartParser.cpp ------------------------------------------------===//

#include "nlp/ChartParser.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <optional>

using namespace regel;
using namespace regel::nlp;

namespace {

class ChartSession {
  /// Longest unary chain in the grammar (ConstSet to Root).
  static constexpr size_t MaxChain = 4;

public:
  ChartSession(const Grammar &G, const FeatureSpace &FS,
               const std::vector<Token> &Tokens,
               const std::vector<double> &Weights, const ParserConfig &Cfg)
      : G(G), FS(FS), Tokens(Tokens), Weights(Weights), Cfg(Cfg) {
    N = static_cast<unsigned>(Tokens.size());
    Chart.resize(static_cast<size_t>(N + 1) * (N + 1));
    ImageTable.resize(G.rules().size() * FeatureSpace::SpanBuckets);
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

  /// Sets the score of lexical item \p D, which fired one feature.
  void score(Derivation &D) const {
    D.Score = dotFeatures(D.Features, Weights);
    D.Fired = 1;
  }

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
            score(D);
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
        score(D);
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
          score(D);
          Lexical[I * (N + 1) + (I + 1)].push_back(std::move(D));
        }
      }
    }
  }

  /// Applies \p R to \p Kids and offers the result to the open cell. The
  /// merged features live in Scratch until the cell keeps the item; the
  /// score is dotFeatures over exactly that merged vector, so it matches
  /// (bit for bit) the score of the vector the cell stores. Returns what
  /// the offer did, or nullopt when the rule rejects the children.
  std::optional<CellBuilder::Outcome>
  tryApply(const Rule &R, std::initializer_list<const Derivation *> Kids,
           unsigned SpanLen) {
    Vals.clear();
    for (const Derivation *K : Kids)
      Vals.push_back(&K->Val);
    std::optional<SemValue> Res = R.Apply(Vals);
    if (!Res)
      return std::nullopt;
    mergeKids(Kids);
    uint32_t RuleIdx = static_cast<uint32_t>(&R - G.rules().data());
    addFeature(Scratch, FS.ruleFeature(RuleIdx), 1.0f);
    addFeature(Scratch, FS.spanFeature(R.Lhs, SpanLen), 1.0f);
    Derivation D;
    D.Category = R.Lhs;
    D.Fired = 2;
    for (const Derivation *K : Kids)
      D.Fired += K->Fired;
    D.Val = std::move(*Res);
    D.Score = dotFeatures(Scratch, Weights);
    return Builder.offer(D, D.Score, [this, &D] {
      D.Features = Scratch;
      return std::move(D);
    });
  }

  /// Scratch = the merged feature vectors of \p Kids.
  void mergeKids(std::initializer_list<const Derivation *> Kids) {
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
  }

  /// An offered item or one of its unary images, as early rejection sees
  /// it: its category, the rule and span feature ids it adds to its
  /// children's features (sorted), and the sum of their weights.
  struct Image {
    Cat Target;
    std::array<uint32_t, 2 + 2 * MaxChain> Ids;
    size_t NumIds;
    double Weight;
  };

  /// The images of an item of rule \p RuleIdx over \p SpanLen tokens: the
  /// item itself, then one per unary chain from its category. Built once
  /// per (rule, span bucket) and parse.
  const std::vector<Image> &imagesOf(uint32_t RuleIdx, unsigned SpanLen) {
    const unsigned Bucket =
        std::min(SpanLen, FeatureSpace::SpanBuckets) - 1;
    std::vector<Image> &Out =
        ImageTable[RuleIdx * FeatureSpace::SpanBuckets + Bucket];
    if (!Out.empty())
      return Out;
    const Cat Lhs = G.rules()[RuleIdx].Lhs;
    const std::vector<UnaryChain> &Chains = G.unaryChains(Lhs);
    Out.resize(1 + Chains.size());
    for (size_t I = 0; I < Out.size(); ++I) {
      Image &Im = Out[I];
      Im.Target = I == 0 ? Lhs : Chains[I - 1].target();
      Im.Ids[0] = FS.ruleFeature(RuleIdx);
      Im.Ids[1] = FS.spanFeature(Lhs, SpanLen);
      Im.NumIds = 2;
      if (I > 0) {
        const UnaryChain &Ch = Chains[I - 1];
        assert(Ch.Rules.size() <= MaxChain && "unary chain too long");
        for (size_t Step = 0; Step < Ch.Rules.size(); ++Step) {
          Im.Ids[Im.NumIds++] = FS.ruleFeature(Ch.Rules[Step]);
          Im.Ids[Im.NumIds++] = FS.spanFeature(Ch.Cats[Step], SpanLen);
        }
      }
      std::sort(Im.Ids.begin(),
                Im.Ids.begin() + static_cast<ptrdiff_t>(Im.NumIds));
      Im.Weight = 0;
      for (size_t K = 0; K < Im.NumIds; ++K)
        if (Im.Ids[K] < Weights.size())
          Im.Weight += Weights[Im.Ids[K]];
    }
    return Out;
  }

  /// Early rejection (see ChartParser.h): whether applying \p R to
  /// \p Kids would give an item that is beaten in its category and whose
  /// every unary image is beaten in its own.
  ///
  /// A first verdict adds the children's scores and the extra features'
  /// weights. That sum differs from the exact score (dotFeatures over the
  /// merged vector) only by rounding: by at most a few gamma_N times the
  /// sum of |weight * value| over the features (Higham's bound for an
  /// N-term dot product, applied to the children's sums, this sum and the
  /// exact one), which the largest |weight| times the number of features
  /// fired bounds. A verdict within a generous margin of that is settled
  /// by the exact score, summed as dotFeatures sums the stored vector.
  bool beatenEverywhere(const Rule &R,
                        std::initializer_list<const Derivation *> Kids,
                        unsigned SpanLen) {
    if (!Builder.full(R.Lhs))
      return false;
    for (const UnaryChain &Ch : G.unaryChains(R.Lhs))
      if (!Builder.full(Ch.target()))
        return false;

    const uint32_t RuleIdx = static_cast<uint32_t>(&R - G.rules().data());
    const std::vector<Image> &Ims = imagesOf(RuleIdx, SpanLen);
    double KidScores = 0;
    uint32_t Fired = 0;
    for (const Derivation *K : Kids) {
      KidScores += K->Score;
      Fired += K->Fired;
    }
    ImageScores.resize(Ims.size());
    bool Unsure = false;
    for (size_t I = 0; I < Ims.size(); ++I) {
      const Image &Im = Ims[I];
      const double Approx = KidScores + Im.Weight;
      const double Cut = Builder.threshold(Im.Target);
      const double Margin =
          Slack * (MaxWeight * (Fired + Im.NumIds) + std::fabs(Cut));
      if (Approx - Margin >= Cut)
        return false;
      if (Approx + Margin < Cut) {
        // The exact score is below Approx + Margin, which is what the
        // rejection is recorded with.
        ImageScores[I] = Approx + Margin;
        continue;
      }
      ImageScores[I] = std::numeric_limits<double>::quiet_NaN();
      Unsure = true;
    }
    if (Unsure) {
      mergeKids(Kids);
      for (size_t I = 0; I < Ims.size(); ++I) {
        if (!std::isnan(ImageScores[I]))
          continue;
        ImageScores[I] = dotFeaturesWith(Scratch, Ims[I].Ids.data(),
                                         Ims[I].NumIds, Weights);
        if (!Builder.beaten(Ims[I].Target, ImageScores[I]))
          return false;
      }
    }
    const uint32_t Stamp = Builder.stampDrop();
    for (size_t I = 0; I < Ims.size(); ++I)
      Builder.rejected(Ims[I].Target, ImageScores[I], Stamp);
    Rejected = true;
    DroppedIn[R.Lhs] = true;
    return true;
  }

  /// Offers the composition of \p R over \p Kids to the open cell, unless
  /// early rejection drops it unapplied.
  void compose(const Rule &R, std::initializer_list<const Derivation *> Kids,
               unsigned SpanLen) {
    if (Rejecting && beatenEverywhere(R, Kids, SpanLen))
      return;
    tryApply(R, Kids, SpanLen);
  }

  void buildCell(unsigned I, unsigned J) {
    ChartCell &C = cell(I, J);
    if (fillCell(I, J, /*Reject=*/true))
      return;
    C = ChartCell();
    fillCell(I, J, /*Reject=*/false);
  }

  /// Fills cell (I, J), dropping compositions early when \p Reject is set.
  /// Returns false when a drop could have changed the cell (see
  /// ChartParser.h); the cell must then be rebuilt without dropping.
  bool fillCell(unsigned I, unsigned J, bool Reject) {
    ChartCell &C = cell(I, J);
    Builder.start(C, Cfg.BeamPerCat);
    Rejecting = Reject;
    Rejected = false;
    DroppedIn.fill(false);
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
                dotFeaturesWith(D.Features, &Skip, 1, Weights);
            Builder.offer(D, Score, [&D, Skip, Score] {
              Derivation E;
              E.Category = D.Category;
              E.Val = D.Val;
              E.Features.reserve(D.Features.size() + 1);
              E.Features = D.Features;
              addFeature(E.Features, Skip, 1.0f);
              E.Score = Score;
              E.Fired = D.Fired + 1;
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
      for (const RuleGroup &Group : G.rulesByFirst()) {
        const std::vector<Derivation> &LeftBucket = Left.ByCat[Group.First];
        if (LeftBucket.empty())
          continue;
        for (uint32_t RuleIdx : Group.Rules) {
          const Rule &R = G.rules()[RuleIdx];
          if (R.Rhs.size() == 2) {
            const auto &RightBucket = cell(K, J).ByCat[R.Rhs[1]];
            for (const Derivation &L : LeftBucket)
              for (const Derivation &Rt : RightBucket)
                compose(R, {&L, &Rt}, Len);
            continue;
          }
          if (R.Rhs.size() == 3) {
            for (unsigned K2 = K + 1; K2 < J; ++K2) {
              const auto &MidBucket = cell(K, K2).ByCat[R.Rhs[1]];
              if (MidBucket.empty())
                continue;
              const auto &RightBucket = cell(K2, J).ByCat[R.Rhs[2]];
              for (const Derivation &L : LeftBucket)
                for (const Derivation &M : MidBucket)
                  for (const Derivation &Rt : RightBucket)
                    compose(R, {&L, &M, &Rt}, Len);
            }
          }
        }
      }
    }

    // Unary closure (CC -> PROGRAM -> LIST -> SKETCH -> ROOT). No unary
    // rule keeps its category (see Grammar::buildRuleTables), so adding a
    // result never grows or rewrites the bucket being walked: its items
    // can be read in place. After a drop, it also watches for the cases
    // in which the drop could have changed the cell (see ChartParser.h).
    bool Doubt = false;
    Builder.startClosure();
    for (unsigned Round = 0; Round < 4 && !Doubt; ++Round) {
      size_t Before = C.Count;
      std::array<bool, NumCats> Walked{};
      bool Pending = false, Progressed = false;
      for (unsigned From = 0; From < NumCats; ++From) {
        const Cat FromCat = static_cast<Cat>(From);
        const std::vector<uint32_t> &Unary = G.unaryFrom(FromCat);
        if (Unary.empty())
          continue;
        size_t BucketSize = C.ByCat[FromCat].size();
        for (size_t Idx = 0; Idx < BucketSize; ++Idx) {
          const uint32_t Src = static_cast<uint32_t>(Idx);
          if (!Builder.takeFresh(FromCat, Src))
            continue;
          const Derivation &D = C.ByCat[FromCat][Idx];
          const bool Suspect = Rejected && Builder.suspect(FromCat, Src);
          for (uint32_t RuleIdx : Unary) {
            const Rule &R = G.rules()[RuleIdx];
            std::optional<CellBuilder::Outcome> O = tryApply(R, {&D}, Len);
            if (!Rejected || !O || *O == CellBuilder::Outcome::Dropped)
              continue;
            const bool Changed = *O != CellBuilder::Outcome::Tied;
            if (*O == CellBuilder::Outcome::Inserted && !DroppedIn[R.Lhs])
              Progressed = true;
            if (Changed && Walked[R.Lhs])
              Pending = true;
            if (Suspect) {
              if (!Builder.beaten(R.Lhs, Builder.lastItem().Score))
                Doubt = true;
              Builder.setSuspect(true);
            } else if (!Changed) {
              // Two closure offers of one identity tie: the first one the
              // closure walks keeps its features, and drops can change the
              // walk order of late items.
              if (Builder.touched(R.Lhs) && Builder.lastSetInClosure() &&
                  Builder.lastItem().Features != Scratch)
                Doubt = true;
            } else {
              Builder.setSuspect(false);
            }
          }
        }
        // Only a walked category with unary rules of its own leaves a
        // later change unpropagated until the next round.
        Walked[FromCat] = true;
      }
      // A change behind the walk waits for the next round, which runs only
      // if this one inserted a new identity; a drop's identity could have
      // made that differ. Not so for an item the first round inserted into
      // a category no dropped composition belongs to: before the closure
      // both builds held the same identities there, and the plain closure
      // offers it in its first round too.
      if (Pending && (Round > 0 || !Progressed))
        Doubt = true;
      if (C.Count == Before)
        break;
    }

    for (unsigned K = 0; Rejected && K < NumCats && !Doubt; ++K)
      Doubt = Builder.lateTie(static_cast<Cat>(K));
    Builder.finish();
    return !Doubt;
  }

  const Grammar &G;
  const FeatureSpace &FS;
  const std::vector<Token> &Tokens;
  const std::vector<double> &Weights;
  const ParserConfig &Cfg;
  unsigned N;
  std::vector<ChartCell> Chart;
  CellBuilder Builder;
  /// Whether the open cell may drop compositions, and whether it has.
  bool Rejecting = false, Rejected = false;
  /// The categories of the open cell's dropped compositions (not of their
  /// unary images).
  std::array<bool, NumCats> DroppedIn{};
  /// tryApply's reused buffers: the children's values, and the merged
  /// feature vector (plus the ternary merge's intermediate).
  std::vector<const SemValue *> Vals;
  FeatureVec Scratch, MergeTmp;
  std::vector<std::vector<Image>> ImageTable;
  std::vector<double> ImageScores;
  /// Rounding margin per unit of sum |weight * value|: 16 gamma_N, N
  /// covering any merged feature vector plus the extra ids (the error
  /// bound needs about 3 gamma_N; the rest absorbs the margin's own
  /// rounding).
  const double Slack = [this] {
    const double N = FS.size() + 2 + 2 * MaxChain;
    const double U = std::ldexp(1.0, -53);
    return 16 * N * U / (1 - N * U);
  }();
  /// The largest |weight|.
  const double MaxWeight = [this] {
    double Max = 0;
    for (double W : Weights)
      Max = std::max(Max, std::fabs(W));
    return Max;
  }();
  std::vector<std::vector<Derivation>> Lexical;
};

} // namespace

std::vector<Derivation> regel::nlp::parseChart(
    const Grammar &G, const FeatureSpace &FS, const std::vector<Token> &Tokens,
    const std::vector<double> &Weights, const ParserConfig &Cfg) {
  std::vector<Token> Trimmed = Tokens;
  if (Trimmed.size() > Cfg.MaxTokens)
    Trimmed.resize(Cfg.MaxTokens);
  ChartSession Session(G, FS, Trimmed, Weights, Cfg);
  return Session.run();
}
