//===- nlp/Grammar.cpp - Compositional rules (Appendix B.1) ---------------===//

#include "nlp/Grammar.h"

#include "regex/Printer.h"

#include <algorithm>
#include <cassert>

using namespace regel;
using namespace regel::nlp;

std::string regel::nlp::catName(Cat C) {
  static const char *Names[] = {
      "CC",         "CONST",     "INT",       "PROGRAM",     "CONST_SET",
      "LIST",       "SKETCH",    "ROOT",      "M_NOT",       "M_NON",
      "M_OR",       "M_OPT",     "M_NOTCONT", "M_CONTAIN",   "M_ORMORE",
      "M_ATLEAST",  "M_ATMAX",   "M_EXACT",   "M_DECIMAL",   "M_DECNUM",
      "M_LENGTH",   "M_CSU",     "M_SEP",     "M_BETWEEN",   "M_SPLITBY",
      "M_ENDWITH",  "M_ATEND",   "M_STARTW",  "M_CONCAT",    "M_FOLLOW",
      "M_ONLY",     "M_TO",      "INTRANGE"};
  static_assert(sizeof(Names) / sizeof(Names[0]) == NumCats,
                "category name table out of sync");
  return Names[C];
}

SemValue SemValue::regex(RegexPtr R) {
  SemValue V;
  V.K = Kind::Regex;
  V.R = std::move(R);
  return V;
}

SemValue SemValue::sketch(SketchPtr S) {
  SemValue V;
  V.K = Kind::Sketch;
  V.S = std::move(S);
  return V;
}

SemValue SemValue::intval(long I) {
  SemValue V;
  V.K = Kind::Int;
  V.I = I;
  return V;
}

SemValue SemValue::list(std::vector<SketchPtr> L) {
  SemValue V;
  V.K = Kind::List;
  V.List = std::move(L);
  return V;
}

SketchPtr SemValue::asSketch() const {
  if (K == Kind::Sketch)
    return S;
  if (K == Kind::Regex)
    return Sketch::concrete(R);
  return nullptr;
}

size_t SemValue::hash() const {
  size_t H = static_cast<size_t>(K) * 0x9e3779b97f4a7c15ull;
  switch (K) {
  case Kind::None:
    break;
  case Kind::Regex:
    H ^= R->hash();
    break;
  case Kind::Sketch:
    H ^= S->hash();
    break;
  case Kind::Int:
    H ^= static_cast<size_t>(I) * 0x85ebca6b;
    break;
  case Kind::List:
    for (const SketchPtr &E : List)
      H ^= E->hash() + 0x9e3779b9 + (H << 6) + (H >> 2);
    break;
  }
  return H;
}

bool SemValue::operator==(const SemValue &O) const {
  if (K != O.K)
    return false;
  switch (K) {
  case Kind::None:
    return true;
  case Kind::Regex:
    return regexEquals(R, O.R);
  case Kind::Sketch:
    return sketchEquals(S, O.S);
  case Kind::Int:
    return I == O.I;
  case Kind::List:
    return std::equal(List.begin(), List.end(), O.List.begin(), O.List.end(),
                      sketchEquals);
  }
  return false;
}

Grammar::Grammar() {
  buildLexicon();
  buildRules();
  buildRuleTables();
}

void Grammar::buildRuleTables() {
  // Grouping through an unordered_map filled in rule order reproduces the
  // group order the chart parser has always offered compositions in.
  std::unordered_map<uint16_t, std::vector<uint32_t>> Groups;
  for (uint32_t I = 0; I < Rules.size(); ++I)
    Groups[Rules[I].Rhs[0]].push_back(I);
  for (auto &[First, Idx] : Groups)
    ByFirst.push_back({static_cast<Cat>(First), std::move(Idx)});

  UnaryFrom.assign(NumCats, {});
  for (uint32_t I = 0; I < Rules.size(); ++I) {
    const Rule &R = Rules[I];
    assert((R.Rhs.size() != 1 || R.Rhs[0] != R.Lhs) &&
           "a unary rule must change the category (see the chart closure)");
    if (R.Rhs.size() == 1)
      UnaryFrom[R.Rhs[0]].push_back(I);
  }

  // Depth-first over unary rules; the grammar's unary rules form no cycle,
  // so the walk ends within NumCats steps.
  Chains.assign(NumCats, {});
  for (unsigned From = 0; From < NumCats; ++From) {
    std::vector<UnaryChain> Work{UnaryChain()};
    while (!Work.empty()) {
      UnaryChain Cur = std::move(Work.back());
      Work.pop_back();
      Cat At = Cur.Cats.empty() ? static_cast<Cat>(From) : Cur.target();
      for (uint32_t RuleIdx : UnaryFrom[At]) {
        UnaryChain Next = Cur;
        Next.Rules.push_back(RuleIdx);
        Next.Cats.push_back(Rules[RuleIdx].Lhs);
        assert(Next.Rules.size() <= NumCats && "cycle among unary rules");
        Chains[From].push_back(Next);
        Work.push_back(std::move(Next));
      }
    }
  }
}

void Grammar::addRule(Cat Lhs, std::vector<Cat> Rhs, const char *Name,
                      std::function<std::optional<SemValue>(
                          const std::vector<const SemValue *> &)>
                          Apply) {
  assert(!Rhs.empty() && Rhs.size() <= 3 && "rule arity out of range");
  Rules.push_back({Lhs, std::move(Rhs), std::move(Apply), Name});
}

namespace {

/// Maximum integer constant the grammar accepts for repetitions.
constexpr long MaxNlInt = 30;

bool intOk(long V) { return V >= 1 && V <= MaxNlInt; }

/// Result of a sketch-producing combination: concrete sketches become
/// $PROGRAM values so the program-level rules keep composing them.
SemValue fromSketch(SketchPtr S) {
  if (S->getKind() == SketchKind::Concrete)
    return SemValue::regex(S->regex());
  return SemValue::sketch(std::move(S));
}

SketchPtr opS(RegexKind K, std::vector<SketchPtr> Kids,
              std::vector<int> Ints = {}) {
  return Sketch::op(K, std::move(Kids), std::move(Ints));
}

/// "x separated by y" == x (y x)* .
SketchPtr sepSketch(const SketchPtr &X, const SketchPtr &Y) {
  return opS(RegexKind::Concat,
             {X, opS(RegexKind::KleeneStar, {opS(RegexKind::Concat, {Y, X})})});
}

/// "decimal x.y" == x optionally followed by '.' y .
SketchPtr decimalSketch(const SketchPtr &X, const SketchPtr &Y) {
  SketchPtr Dot = Sketch::concrete(Regex::literal('.'));
  return opS(RegexKind::Concat,
             {X, opS(RegexKind::Optional,
                     {opS(RegexKind::Concat, {Dot, Y})})});
}

} // namespace

void Grammar::buildRules() {
  using Args = std::vector<const SemValue *>;

  // --- Root / lists / holes ---
  addRule(CatRoot, {CatSketch}, "root<-sketch", [](const Args &A) {
    return *A[0];
  });
  addRule(CatList, {CatProgram}, "list<-program", [](const Args &A) {
    SketchPtr S = A[0]->asSketch();
    return SemValue::list({S});
  });
  addRule(CatList, {CatProgram, CatList}, "list<-cons", [](const Args &A) {
    SketchPtr S = A[0]->asSketch();
    std::vector<SketchPtr> L{S};
    L.insert(L.end(), A[1]->List.begin(), A[1]->List.end());
    if (L.size() > 4)
      return std::optional<SemValue>(); // cap hole component count
    return std::optional<SemValue>(SemValue::list(std::move(L)));
  });
  addRule(CatSketch, {CatList}, "sketch<-hole", [](const Args &A) {
    return SemValue::sketch(Sketch::hole(A[0]->List));
  });
  addRule(CatSketch, {CatProgram}, "sketch<-concrete", [](const Args &A) {
    return SemValue::sketch(Sketch::concrete(A[0]->R));
  });

  // --- Base programs ---
  addRule(CatProgram, {CatCC}, "program<-cc",
          [](const Args &A) { return *A[0]; });
  addRule(CatProgram, {CatConst}, "program<-const",
          [](const Args &A) { return *A[0]; });
  addRule(CatProgram, {CatConstSet}, "program<-constset", [](const Args &A) {
    // Fold the constant set into a disjunction.
    std::vector<RegexPtr> Rs;
    for (const SketchPtr &S : A[0]->List)
      Rs.push_back(S->regex());
    return SemValue::regex(Regex::orAll(Rs));
  });
  addRule(CatConstSet, {CatConst, CatMConstSetUnion, CatConst},
          "constset<-pair", [](const Args &A) {
            return SemValue::list({Sketch::concrete(A[0]->R),
                                   Sketch::concrete(A[2]->R)});
          });
  addRule(CatConstSet, {CatConst, CatMConstSetUnion, CatConstSet},
          "constset<-cons", [](const Args &A) {
            std::vector<SketchPtr> L{Sketch::concrete(A[0]->R)};
            L.insert(L.end(), A[2]->List.begin(), A[2]->List.end());
            return SemValue::list(std::move(L));
          });
  addRule(CatIntRange, {CatInt, CatMTo, CatInt}, "intrange", [](const Args &A) {
    long K1 = A[0]->I, K2 = A[2]->I;
    if (!intOk(K1) || !intOk(K2) || K1 > K2)
      return std::optional<SemValue>();
    return std::optional<SemValue>(SemValue::intval((K1 << 16) | K2));
  });

  // --- Unary sketch/program operators, generated for both operand kinds ---
  struct UnaryOp {
    const char *Name;
    std::vector<Cat> Pattern; // contains one operand placeholder CatProgram
    unsigned OperandIdx;
    SketchPtr (*Build)(const SketchPtr &);
  };
  const UnaryOp UnaryOps[] = {
      {"notcontain", {CatMNotContain, CatProgram}, 1,
       +[](const SketchPtr &X) {
         return opS(RegexKind::Not, {opS(RegexKind::Contains, {X})});
       }},
      {"not", {CatMNot, CatProgram}, 1,
       +[](const SketchPtr &X) { return opS(RegexKind::Not, {X}); }},
      {"optional-pre", {CatMOptional, CatProgram}, 1,
       +[](const SketchPtr &X) { return opS(RegexKind::Optional, {X}); }},
      {"optional-post", {CatProgram, CatMOptional}, 0,
       +[](const SketchPtr &X) { return opS(RegexKind::Optional, {X}); }},
      {"contains", {CatMContain, CatProgram}, 1,
       +[](const SketchPtr &X) { return opS(RegexKind::Contains, {X}); }},
      {"startswith", {CatMStartWith, CatProgram}, 1,
       +[](const SketchPtr &X) { return opS(RegexKind::StartsWith, {X}); }},
      {"endswith", {CatMEndWith, CatProgram}, 1,
       +[](const SketchPtr &X) { return opS(RegexKind::EndsWith, {X}); }},
      {"atend", {CatProgram, CatMAtEnd}, 0,
       +[](const SketchPtr &X) { return opS(RegexKind::EndsWith, {X}); }},
      {"only-pre", {CatMOnly, CatProgram}, 1,
       +[](const SketchPtr &X) {
         return opS(RegexKind::RepeatAtLeast, {X}, {1});
       }},
      {"only-post", {CatProgram, CatMOnly}, 0,
       +[](const SketchPtr &X) {
         return opS(RegexKind::RepeatAtLeast, {X}, {1});
       }},
  };
  for (const UnaryOp &Op : UnaryOps) {
    for (Cat OperandCat : {CatProgram, CatSketch}) {
      std::vector<Cat> Rhs = Op.Pattern;
      Rhs[Op.OperandIdx] = OperandCat;
      Cat Lhs = OperandCat;
      unsigned Idx = Op.OperandIdx;
      auto Build = Op.Build;
      addRule(Lhs, std::move(Rhs), Op.Name, [Idx, Build](const Args &A) {
        SketchPtr X = A[Idx]->asSketch();
        if (!X)
          return std::optional<SemValue>();
        return std::optional<SemValue>(fromSketch(Build(X)));
      });
    }
  }

  // --- Binary connective operators (Concat / Follow / Or / Sep / ...) ---
  struct BinaryOp {
    const char *Name;
    Cat Marker;
    unsigned MarkerPos; // 1 for infix X M Y
    bool Swap;          // true: build(Y, X)
    SketchPtr (*Build)(const SketchPtr &, const SketchPtr &);
  };
  const BinaryOp BinaryOps[] = {
      {"concat", CatMConcat, 1, false,
       +[](const SketchPtr &X, const SketchPtr &Y) {
         return opS(RegexKind::Concat, {X, Y});
       }},
      {"follow", CatMFollow, 1, true,
       +[](const SketchPtr &X, const SketchPtr &Y) {
         return opS(RegexKind::Concat, {X, Y});
       }},
      {"or", CatMOr, 1, false,
       +[](const SketchPtr &X, const SketchPtr &Y) {
         return opS(RegexKind::Or, {X, Y});
       }},
      {"sep-infix", CatMSep, 1, false, &sepSketch},
      {"splitby", CatMSplitBy, 1, false, &sepSketch},
      {"between", CatMBetween, 1, true, &sepSketch},
      {"decimal-infix", CatMDecimal, 1, false, &decimalSketch},
  };
  for (const BinaryOp &Op : BinaryOps) {
    for (Cat LeftCat : {CatProgram, CatSketch}) {
      for (Cat RightCat : {CatProgram, CatSketch}) {
        std::vector<Cat> Rhs{LeftCat, Op.Marker, RightCat};
        Cat Lhs = (LeftCat == CatSketch || RightCat == CatSketch)
                      ? CatSketch
                      : CatProgram;
        bool Swap = Op.Swap;
        auto Build = Op.Build;
        addRule(Lhs, std::move(Rhs), Op.Name, [Swap, Build](const Args &A) {
          SketchPtr X = A[0]->asSketch();
          SketchPtr Y = A[2]->asSketch();
          if (!X || !Y)
            return std::optional<SemValue>();
          return std::optional<SemValue>(Swap ? fromSketch(Build(Y, X))
                                              : fromSketch(Build(X, Y)));
        });
      }
    }
  }
  // Trailing-marker separator form: "x y separated".
  addRule(CatSketch, {CatSketch, CatProgram, CatMSep}, "sep-postfix",
          [](const Args &A) {
            SketchPtr X = A[0]->asSketch(), Y = A[1]->asSketch();
            if (!X || !Y)
              return std::optional<SemValue>();
            return std::optional<SemValue>(fromSketch(sepSketch(X, Y)));
          });

  // --- Repetition rules (operands are programs; Sketch::op folds) ---
  auto operand = [](const SemValue *V) { return V->asSketch(); };

  addRule(CatProgram, {CatInt, CatProgram}, "repeat", [operand](const Args &A) {
    if (!intOk(A[0]->I))
      return std::optional<SemValue>();
    return std::optional<SemValue>(fromSketch(
        opS(RegexKind::Repeat, {operand(A[1])}, {static_cast<int>(A[0]->I)})));
  });
  addRule(CatProgram, {CatProgram, CatMLength, CatInt}, "repeat-len-post",
          [operand](const Args &A) {
            if (!intOk(A[2]->I))
              return std::optional<SemValue>();
            return std::optional<SemValue>(fromSketch(opS(
                RegexKind::Repeat, {operand(A[0])},
                {static_cast<int>(A[2]->I)})));
          });
  addRule(CatProgram, {CatMLength, CatInt, CatProgram}, "repeat-len-pre",
          [operand](const Args &A) {
            if (!intOk(A[1]->I))
              return std::optional<SemValue>();
            return std::optional<SemValue>(fromSketch(opS(
                RegexKind::Repeat, {operand(A[2])},
                {static_cast<int>(A[1]->I)})));
          });
  addRule(CatProgram, {CatMExact, CatInt, CatProgram}, "repeat-exact",
          [operand](const Args &A) {
            if (!intOk(A[1]->I))
              return std::optional<SemValue>();
            return std::optional<SemValue>(fromSketch(opS(
                RegexKind::Repeat, {operand(A[2])},
                {static_cast<int>(A[1]->I)})));
          });
  addRule(CatIntRange, {CatInt, CatMOr, CatInt}, "intpair-or",
          [](const Args &A) {
            long K1 = A[0]->I, K2 = A[2]->I;
            if (!intOk(K1) || !intOk(K2))
              return std::optional<SemValue>();
            // Tag disjunctive pairs with the high bit.
            return std::optional<SemValue>(
                SemValue::intval((1L << 40) | (K1 << 16) | K2));
          });
  addRule(CatProgram, {CatIntRange, CatProgram}, "repeat-range",
          [operand](const Args &A) {
            long Packed = A[0]->I;
            int K1 = static_cast<int>((Packed >> 16) & 0xffff);
            int K2 = static_cast<int>(Packed & 0xffff);
            bool Disjunctive = (Packed >> 40) & 1;
            SketchPtr X = operand(A[1]);
            if (Disjunctive) {
              // "6 or 8 digits" = Or(Repeat(x,6), Repeat(x,8)).
              return std::optional<SemValue>(fromSketch(
                  opS(RegexKind::Or, {opS(RegexKind::Repeat, {X}, {K1}),
                                      opS(RegexKind::Repeat, {X}, {K2})})));
            }
            if (K1 > K2)
              return std::optional<SemValue>();
            return std::optional<SemValue>(
                fromSketch(opS(RegexKind::RepeatRange, {X}, {K1, K2})));
          });
  addRule(CatProgram, {CatInt, CatMOrMore, CatProgram}, "atleast-ormore",
          [operand](const Args &A) {
            if (!intOk(A[0]->I))
              return std::optional<SemValue>();
            return std::optional<SemValue>(fromSketch(
                opS(RegexKind::RepeatAtLeast, {operand(A[2])},
                    {static_cast<int>(A[0]->I)})));
          });
  addRule(CatProgram, {CatProgram, CatInt, CatMOrMore}, "atleast-postfix",
          [operand](const Args &A) {
            if (!intOk(A[1]->I))
              return std::optional<SemValue>();
            return std::optional<SemValue>(fromSketch(
                opS(RegexKind::RepeatAtLeast, {operand(A[0])},
                    {static_cast<int>(A[1]->I)})));
          });
  addRule(CatProgram, {CatMAtLeast, CatInt, CatProgram}, "atleast-marker",
          [operand](const Args &A) {
            if (!intOk(A[1]->I))
              return std::optional<SemValue>();
            return std::optional<SemValue>(fromSketch(
                opS(RegexKind::RepeatAtLeast, {operand(A[2])},
                    {static_cast<int>(A[1]->I)})));
          });
  addRule(CatProgram, {CatMAtMax, CatInt, CatProgram}, "range-atmax",
          [operand](const Args &A) {
            if (!intOk(A[1]->I))
              return std::optional<SemValue>();
            return std::optional<SemValue>(fromSketch(
                opS(RegexKind::RepeatRange, {operand(A[2])},
                    {1, static_cast<int>(A[1]->I)})));
          });

  // --- Non-compositional markers ---
  addRule(CatSketch, {CatMDecimalNum}, "decimalnum", [](const Args &) {
    // "decimal number": digits, optionally '.' and more digits.
    RegexPtr Num = Regex::charClass(CharClass::num());
    RegexPtr Shape = Regex::concat(
        Regex::repeatAtLeast(Num, 1),
        Regex::optional(Regex::concat(Regex::literal('.'),
                                      Regex::repeatAtLeast(Num, 1))));
    return SemValue::sketch(Sketch::hole({Sketch::concrete(Shape)}));
  });

  // Negated constant: "non comma" etc.
  addRule(CatProgram, {CatMNon, CatConst}, "notcc", [](const Args &A) {
    return SemValue::regex(Regex::notOf(A[1]->R));
  });
}
