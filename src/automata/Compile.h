//===- automata/Compile.h - Regex-to-automaton compilation ------*- C++ -*-===//
//
// Part of the Regel reproduction. Compiles regex DSL terms (Fig. 5) into
// minimized DFAs. Not/And are handled through complement/intersection of
// the children's DFAs, mirroring how the paper uses the Brics library.
//
// A DfaCache memoizes the (structural) regex -> DFA mapping for callers
// that query the same automata repeatedly (the active learner's pairwise
// distinguishing strings). The PBE search itself checks membership with
// the direct matcher instead; bench/micro_kernels measures both paths.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_AUTOMATA_COMPILE_H
#define REGEL_AUTOMATA_COMPILE_H

#include "automata/Dfa.h"
#include "regex/Ast.h"

#include <unordered_map>

namespace regel {

/// Compiles \p R to a minimized complete DFA (no caching).
Dfa compileRegex(const RegexPtr &R);

/// Cache from regex (keyed by full structural identity) to compiled DFA.
/// Not thread-safe; each user owns one.
class DfaCache {
public:
  /// Returns the DFA for \p R, compiling it on first use.
  const Dfa &get(const RegexPtr &R);

  /// Membership through the cache.
  bool matches(const RegexPtr &R, const std::string &Input) {
    return get(R).matches(Input);
  }

  /// True if \p R matches every string in \p Examples.
  bool acceptsAll(const RegexPtr &R, const std::vector<std::string> &Examples);

  /// True if \p R matches no string in \p Examples.
  bool rejectsAll(const RegexPtr &R, const std::vector<std::string> &Examples);

  size_t size() const { return Cache.size(); }
  void clear() { Cache.clear(); }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  std::unordered_map<RegexPtr, Dfa, RegexPtrHash, RegexPtrEq> Cache;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Semantic equivalence of two DSL regexes (full printable-ASCII alphabet).
bool regexEquivalent(const RegexPtr &A, const RegexPtr &B);

} // namespace regel

#endif // REGEL_AUTOMATA_COMPILE_H
