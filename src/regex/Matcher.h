//===- regex/Matcher.h - Direct (automaton-free) matching -------*- C++ -*-===//
//
// Part of the Regel reproduction. A bit-parallel evaluator of the Fig. 6
// semantics, independent of src/automata (compileRegex is its test oracle).
// It checks every candidate and approximation in the PBE loop, where a DFA
// per distinct regex would be wasted work. Each AST node evaluates
// bottom-up to R(node) = {(i,j) : s[i..j) in L(node)}, one bit-row per
// start i: one word under 64 chars, ceil((n+1)/64) words otherwise. Concat
// is relation composition, KleeneStar a closure pass, the Repeat family
// iterated composition with an early fixpoint; the rest are word ops.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_REGEX_MATCHER_H
#define REGEL_REGEX_MATCHER_H

#include "regex/Ast.h"

#include <string_view>
#include <vector>

namespace regel {

/// Matches many strings against one regex. Construction flattens the AST;
/// the relations live in one arena that only grows, so repeated matches
/// allocate nothing after warm-up.
class DirectMatcher {
public:
  explicit DirectMatcher(RegexPtr R) { flatten(*R); }

  /// Returns true iff \p Input is in the language of the regex
  /// (Fig. 6 semantics; concatenation and repetition permit empty pieces,
  /// as required by the paper's Sec. 2 example).
  bool matches(std::string_view Input);

private:
  /// One AST node. Ops are in postorder, so children precede parents.
  struct Op {
    RegexKind Kind;
    uint32_t C[2] = {0, 0}; ///< Child op indices.
    int K1 = 0, K2 = 0;
    uint64_t Chars[4] = {0, 0, 0, 0}; ///< Leaf: the member bytes.
  };

  uint32_t flatten(const Regex &R);
  template <unsigned FixedWords> bool eval(std::string_view S);

  std::vector<Op> Ops;
  std::vector<uint64_t> Arena; ///< One relation per op, then two scratch.
};

/// One-shot convenience wrapper around DirectMatcher.
bool matchesDirect(const RegexPtr &R, std::string_view Input);

} // namespace regel

#endif // REGEL_REGEX_MATCHER_H
