//===- nlp/ChartParser.cpp ------------------------------------------------===//

#include "nlp/ChartParser.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>

using namespace regel;
using namespace regel::nlp;

namespace {

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
  CellBuilder Builder;
  /// tryApply's reused buffers: the children's values, and the merged
  /// feature vector (plus the ternary merge's intermediate).
  std::vector<const SemValue *> Vals;
  FeatureVec Scratch, MergeTmp;
  std::vector<std::vector<Derivation>> Lexical;
  std::unordered_map<uint16_t, std::vector<const Rule *>> RulesByFirst;
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
