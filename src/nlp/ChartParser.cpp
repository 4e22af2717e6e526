//===- nlp/ChartParser.cpp ------------------------------------------------===//

#include "nlp/ChartParser.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <initializer_list>
#include <optional>

using namespace regel;
using namespace regel::nlp;

namespace {

/// \p W on the weight grid (Features.h), one weight per feature (a missing
/// one is 0), so every score of a parse under it is exact. A derivation
/// over n tokens has at most n leaves and skips (one feature each), fewer
/// compositions than leaves (two each), and above each leaf and each
/// composition a unary chain of at most C rules (two each): it fires at
/// most (3 + 4C) n features.
std::vector<double> onGrid(const Grammar &G, const FeatureSpace &FS,
                            const std::vector<double> &W,
                            const ParserConfig &Cfg) {
  std::vector<double> Out(FS.size(), 0.0);
  double MaxWeight = 0;
  for (size_t I = 0; I < Out.size() && I < W.size(); ++I) {
    Out[I] = gridWeight(W[I]);
    MaxWeight = std::max(MaxWeight, std::fabs(Out[I]));
  }
  size_t Chain = 0;
  for (unsigned C = 0; C < NumCats; ++C)
    for (const UnaryChain &Ch : G.unaryChains(static_cast<Cat>(C)))
      Chain = std::max(Chain, Ch.Rules.size());
  const double MaxFired = (3.0 + 4.0 * Chain) * Cfg.MaxTokens;
  assert(MaxWeight * MaxFired < ExactScoreBound &&
         "weights too large for exact chart scores");
  (void)MaxFired;
  return Out;
}

class ChartSession {
public:
  ChartSession(const Grammar &G, const FeatureSpace &FS,
               const std::vector<Token> &Tokens,
               const std::vector<double> &Weights, const ParserConfig &Cfg)
      : G(G), FS(FS), Tokens(Tokens), Weights(onGrid(G, FS, Weights, Cfg)),
        Cfg(Cfg) {
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
            D.Score = dotFeatures(D.Features, Weights);
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
        D.Score = dotFeatures(D.Features, Weights);
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
          D.Score = dotFeatures(D.Features, Weights);
          Lexical[I * (N + 1) + (I + 1)].push_back(std::move(D));
        }
      }
    }
  }

  /// Applies \p R to \p Kids and offers the result, which scores
  /// \p Score, to the open cell. The children's feature vectors are merged
  /// only when the cell keeps the item. Returns what the offer did, or
  /// nullopt when the rule rejects the children.
  std::optional<CellBuilder::Outcome>
  tryApply(const Rule &R, std::initializer_list<const Derivation *> Kids,
           unsigned SpanLen, double Score) {
    Vals.clear();
    for (const Derivation *K : Kids)
      Vals.push_back(&K->Val);
    std::optional<SemValue> Res = R.Apply(Vals);
    if (!Res)
      return std::nullopt;
    Derivation D;
    D.Category = R.Lhs;
    D.Val = std::move(*Res);
    D.Score = Score;
    return Builder.offer(D, Score, [&] {
      buildFeatures(R, Kids, SpanLen);
      D.Features = Scratch;
      return std::move(D);
    });
  }

  /// Scratch = the features of \p R applied to \p Kids over \p SpanLen
  /// tokens: the children's merged vectors plus R's rule and span features.
  void buildFeatures(const Rule &R,
                     std::initializer_list<const Derivation *> Kids,
                     unsigned SpanLen) {
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
    addFeature(Scratch, FS.ruleFeature(ruleIndex(R)), 1.0f);
    addFeature(Scratch, FS.spanFeature(R.Lhs, SpanLen), 1.0f);
  }

  uint32_t ruleIndex(const Rule &R) const {
    return static_cast<uint32_t>(&R - G.rules().data());
  }

  /// An item of some rule or one of its unary images, as early rejection
  /// sees it: its category, and the summed weights of the rule and span
  /// features it adds to the rule's children.
  struct Image {
    Cat Target;
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
    const double Own = Weights[FS.ruleFeature(RuleIdx)] +
                       Weights[FS.spanFeature(Lhs, SpanLen)];
    Out.push_back({Lhs, Own});
    for (const UnaryChain &Ch : G.unaryChains(Lhs)) {
      double Weight = Own;
      for (size_t Step = 0; Step < Ch.Rules.size(); ++Step)
        Weight += Weights[FS.ruleFeature(Ch.Rules[Step])] +
                  Weights[FS.spanFeature(Ch.Cats[Step], SpanLen)];
      Out.push_back({Ch.target(), Weight});
    }
    return Out;
  }

  /// Offers the composition of \p R over \p Kids to the open cell. Early
  /// rejection (see ChartParser.h) drops it unapplied instead when it is
  /// beaten in its own category, and records its images' scores for the
  /// end-of-cell check.
  void compose(const Rule &R, std::initializer_list<const Derivation *> Kids,
               unsigned SpanLen) {
    const std::vector<Image> &Ims = imagesOf(ruleIndex(R), SpanLen);
    double KidScores = 0;
    for (const Derivation *K : Kids)
      KidScores += K->Score;
    const double Score = KidScores + Ims[0].Weight;
    if (Rejecting && Builder.beaten(R.Lhs, Score)) {
      const uint32_t Stamp = Builder.stampDrop();
      for (const Image &Im : Ims)
        Builder.rejected(Im.Target, KidScores + Im.Weight, Stamp);
      Rejected = true;
      DroppedIn[R.Lhs] = true;
      return;
    }
    tryApply(R, Kids, SpanLen, Score);
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
    // firing the skipped-token feature. The extended item is built only
    // when the cell keeps it.
    if (Len >= 2) {
      const uint32_t Skip = FS.skipFeature();
      for (const ChartCell *From : {&cell(I, J - 1), &cell(I + 1, J)})
        for (const auto &Bucket : From->ByCat)
          for (const Derivation &D : Bucket) {
            const double Score = D.Score + Weights[Skip];
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
            std::optional<CellBuilder::Outcome> O = tryApply(
                R, {&D}, Len, D.Score + imagesOf(RuleIdx, Len)[0].Weight);
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
              if (Builder.touched(R.Lhs) && Builder.lastSetInClosure()) {
                buildFeatures(R, {&D}, Len);
                if (Builder.lastItem().Features != Scratch)
                  Doubt = true;
              }
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

    // Every dropped image must be cut by the final beam of its category,
    // and no two late items may tie where the beam cuts.
    if (Rejected && !Doubt)
      Doubt = !Builder.imagesBeaten();
    for (unsigned K = 0; Rejected && K < NumCats && !Doubt; ++K)
      Doubt = Builder.lateTie(static_cast<Cat>(K));
    Builder.finish();
    return !Doubt;
  }

  const Grammar &G;
  const FeatureSpace &FS;
  const std::vector<Token> &Tokens;
  /// The weights on the grid, one per feature.
  const std::vector<double> Weights;
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
