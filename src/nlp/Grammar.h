//===- nlp/Grammar.h - Categories, semantic values, grammar rules -*- C++ -*-//
//
// Part of the Regel reproduction. The semantic-parsing grammar of Sec. 5
// and Appendix B: lexical rules map word spans to base categories (character
// classes, constants, operator markers); compositional rules combine
// derivations into $PROGRAM / $SKETCH / $ROOT values. This module is our
// SEMPRE substitute's rule layer; nlp/ChartParser.h supplies the chart.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_NLP_GRAMMAR_H
#define REGEL_NLP_GRAMMAR_H

#include "nlp/Token.h"
#include "sketch/Sketch.h"

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace regel::nlp {

/// Grammar categories.
enum Cat : uint16_t {
  CatCC,       ///< character class
  CatConst,    ///< constant character/string
  CatInt,      ///< integer
  CatProgram,  ///< concrete regex ($PROGRAM)
  CatConstSet, ///< set of constants ($CONST_SET)
  CatList,     ///< list of programs ($LIST_PROGRAM)
  CatSketch,   ///< h-sketch ($SKETCH)
  CatRoot,     ///< $ROOT
  // Operator-marker categories (lexical only).
  CatMNot,
  CatMNon,
  CatMOr,
  CatMOptional,
  CatMNotContain,
  CatMContain,
  CatMOrMore,
  CatMAtLeast,
  CatMAtMax,
  CatMExact,
  CatMDecimal,
  CatMDecimalNum,
  CatMLength,
  CatMConstSetUnion,
  CatMSep,
  CatMBetween,
  CatMSplitBy,
  CatMEndWith,
  CatMAtEnd,
  CatMStartWith,
  CatMConcat,
  CatMFollow,
  CatMOnly,
  CatMTo,
  CatIntRange, ///< "k1 to k2" (packed int pair)
  NumCats
};

/// Printable category name (diagnostics).
std::string catName(Cat C);

/// The semantic payload of a derivation.
struct SemValue {
  enum class Kind : uint8_t { None, Regex, Sketch, Int, List } K = Kind::None;
  RegexPtr R;                  ///< Kind::Regex
  SketchPtr S;                 ///< Kind::Sketch
  long I = 0;                  ///< Kind::Int
  std::vector<SketchPtr> List; ///< Kind::List (programs / constants)

  static SemValue none() { return SemValue(); }
  static SemValue regex(RegexPtr R);
  static SemValue sketch(SketchPtr S);
  static SemValue intval(long V);
  static SemValue list(std::vector<SketchPtr> L);

  /// Coerces Regex/Sketch payloads to a sketch (programs become concrete
  /// sketch leaves). Null when not possible.
  SketchPtr asSketch() const;

  /// Structural hash for beam deduplication (picks a bucket; identity
  /// is operator==).
  size_t hash() const;

  /// Structural equality: same kind and structurally equal payload
  /// (regexEquals / sketchEquals, element-wise for lists).
  bool operator==(const SemValue &O) const;
};

/// A grammar rule (RHS arity 1..3; the chart parser composes natively).
struct Rule {
  Cat Lhs;
  std::vector<Cat> Rhs;
  /// Combines children values; nullopt rejects the combination.
  std::function<std::optional<SemValue>(const std::vector<const SemValue *> &)>
      Apply;
  const char *Name;
};

/// Lexicon entry: phrase of lemmas -> category + value.
struct LexEntry {
  Cat Category;
  SemValue Val;
};

/// The rules whose first right-hand category is First (indices into
/// Grammar::rules(), in rule order).
struct RuleGroup {
  Cat First;
  std::vector<uint32_t> Rules;
};

/// A chain of unary rules from some category: applying Rules[0], then
/// Rules[1], ... turns an item into one of category Cats[i] after step i.
struct UnaryChain {
  std::vector<uint32_t> Rules;
  std::vector<Cat> Cats;
  Cat target() const { return Cats.back(); }
};

/// The full grammar: lexicon + compositional rules.
class Grammar {
public:
  Grammar();

  const std::vector<Rule> &rules() const { return Rules; }

  /// Rules grouped by first right-hand category. The group order is the
  /// iteration order of the unordered_map the chart parser once rebuilt
  /// per parse, kept because it sets the order compositions are offered
  /// in, and so which of two equal-score items a beam keeps.
  const std::vector<RuleGroup> &rulesByFirst() const { return ByFirst; }

  /// The unary rules whose child category is \p C, in rule order.
  const std::vector<uint32_t> &unaryFrom(Cat C) const { return UnaryFrom[C]; }

  /// Every non-empty chain of unary rules that starts at category \p C.
  const std::vector<UnaryChain> &unaryChains(Cat C) const {
    return Chains[C];
  }

  /// Lexicon entries for a lemma phrase (space-joined), null if none.
  const std::vector<LexEntry> *lookup(const std::string &Phrase) const;

  /// Longest lexicon phrase, in tokens.
  unsigned maxPhraseLen() const { return MaxPhraseLen; }

private:
  void buildLexicon();
  void buildRules();
  void buildRuleTables();

  void addLex(const char *Phrase, Cat Category, SemValue Val);
  void addRule(Cat Lhs, std::vector<Cat> Rhs, const char *Name,
               std::function<std::optional<SemValue>(
                   const std::vector<const SemValue *> &)>
                   Apply);

  std::unordered_map<std::string, std::vector<LexEntry>> Lexicon;
  std::vector<Rule> Rules;
  std::vector<RuleGroup> ByFirst;
  std::vector<std::vector<uint32_t>> UnaryFrom;
  std::vector<std::vector<UnaryChain>> Chains;
  unsigned MaxPhraseLen = 1;
};

} // namespace regel::nlp

#endif // REGEL_NLP_GRAMMAR_H
