//===- automata/Compile.cpp -----------------------------------------------===//

#include "automata/Compile.h"

#include <cassert>

using namespace regel;

namespace {

/// A Thompson fragment inside a shared NFA: entry state and single exit
/// state (exit has no outgoing edges within the fragment).
struct Fragment {
  uint32_t In;
  uint32_t Out;
};

/// Builds Thompson fragments for a regex inside one shared NFA. Not/And
/// recurse into full DFA compilation of the subterm and embed the result.
class ThompsonBuilder {
public:
  explicit ThompsonBuilder(Nfa &N) : N(N) {}

  Fragment build(const Regex *R) {
    switch (R->getKind()) {
    case RegexKind::CharClassLeaf: {
      Fragment F = fresh();
      N.addClassEdge(F.In, R->getCharClass(), F.Out);
      return F;
    }
    case RegexKind::Epsilon: {
      Fragment F = fresh();
      N.addEps(F.In, F.Out);
      return F;
    }
    case RegexKind::EmptySet:
      return fresh(); // no path from In to Out
    case RegexKind::StartsWith: {
      // r . any*
      Fragment A = build(R->getChild(0).get());
      Fragment B = anyStar();
      N.addEps(A.Out, B.In);
      return {A.In, B.Out};
    }
    case RegexKind::EndsWith: {
      Fragment A = anyStar();
      Fragment B = build(R->getChild(0).get());
      N.addEps(A.Out, B.In);
      return {A.In, B.Out};
    }
    case RegexKind::Contains: {
      Fragment A = anyStar();
      Fragment B = build(R->getChild(0).get());
      Fragment C = anyStar();
      N.addEps(A.Out, B.In);
      N.addEps(B.Out, C.In);
      return {A.In, C.Out};
    }
    case RegexKind::Not: {
      Dfa D = compileRegex(R->getChild(0)).complement();
      return embedDfa(D);
    }
    case RegexKind::And: {
      Dfa A = compileRegex(R->getChild(0));
      Dfa B = compileRegex(R->getChild(1));
      return embedDfa(Dfa::product(A, B, /*AcceptBoth=*/true).minimize());
    }
    case RegexKind::Optional: {
      Fragment A = build(R->getChild(0).get());
      Fragment F = fresh();
      N.addEps(F.In, A.In);
      N.addEps(A.Out, F.Out);
      N.addEps(F.In, F.Out);
      return F;
    }
    case RegexKind::KleeneStar: {
      Fragment A = build(R->getChild(0).get());
      Fragment F = fresh();
      N.addEps(F.In, A.In);
      N.addEps(A.Out, F.Out);
      N.addEps(F.In, F.Out);
      N.addEps(A.Out, A.In);
      return F;
    }
    case RegexKind::Concat: {
      Fragment A = build(R->getChild(0).get());
      Fragment B = build(R->getChild(1).get());
      N.addEps(A.Out, B.In);
      return {A.In, B.Out};
    }
    case RegexKind::Or: {
      Fragment A = build(R->getChild(0).get());
      Fragment B = build(R->getChild(1).get());
      Fragment F = fresh();
      N.addEps(F.In, A.In);
      N.addEps(F.In, B.In);
      N.addEps(A.Out, F.Out);
      N.addEps(B.Out, F.Out);
      return F;
    }
    case RegexKind::Repeat:
      return repeated(R->getChild(0).get(), R->getK1(), R->getK1());
    case RegexKind::RepeatAtLeast: {
      Fragment Req = repeated(R->getChild(0).get(), R->getK1(), R->getK1());
      // Followed by (child)*.
      Fragment Star = build(R->getChild(0).get());
      Fragment F = fresh();
      N.addEps(Req.Out, F.In);
      N.addEps(F.In, Star.In);
      N.addEps(Star.Out, F.In);
      N.addEps(F.In, F.Out);
      return {Req.In, F.Out};
    }
    case RegexKind::RepeatRange:
      return repeated(R->getChild(0).get(), R->getK1(), R->getK2());
    }
    assert(false && "unknown regex kind");
    return fresh();
  }

private:
  Fragment fresh() { return {N.addState(), N.addState()}; }

  /// Fragment accepting Sigma^*.
  Fragment anyStar() {
    Fragment F = fresh();
    N.addEdge(F.In, MinAlphabetChar, MaxAlphabetChar, F.In);
    N.addEps(F.In, F.Out);
    return F;
  }

  /// Embeds a complete DFA as a fragment: one NFA state per DFA state plus
  /// a fresh exit reached by epsilon from every accepting state.
  Fragment embedDfa(const Dfa &D) {
    uint32_t Base = N.numStates();
    for (uint32_t S = 0; S < D.numStates(); ++S)
      N.addState();
    uint32_t Out = N.addState();
    for (uint32_t S = 0; S < D.numStates(); ++S) {
      for (unsigned C = 0; C < AlphabetSize; ++C) {
        unsigned char Ch = static_cast<unsigned char>(MinAlphabetChar + C);
        uint32_t T = D.step(S, static_cast<char>(Ch));
        N.addEdge(Base + S, Ch, Ch, Base + T);
      }
      if (D.isAccept(S))
        N.addEps(Base + S, Out);
    }
    return {Base + D.start(), Out};
  }

  /// Between KMin and KMax copies of \p R (KMin >= 1).
  Fragment repeated(const Regex *R, int KMin, int KMax) {
    assert(KMin >= 1 && KMax >= KMin && "bad repetition bounds");
    Fragment First = build(R);
    uint32_t In = First.In;
    uint32_t Cur = First.Out;
    std::vector<uint32_t> SkipFrom;
    for (int I = 1; I < KMax; ++I) {
      if (I >= KMin)
        SkipFrom.push_back(Cur);
      Fragment Next = build(R);
      N.addEps(Cur, Next.In);
      Cur = Next.Out;
    }
    uint32_t Out = N.addState();
    N.addEps(Cur, Out);
    for (uint32_t S : SkipFrom)
      N.addEps(S, Out);
    return {In, Out};
  }

  Nfa &N;
};

} // namespace

Dfa regel::compileRegex(const RegexPtr &R) {
  assert(R && "null regex");
  Nfa N;
  ThompsonBuilder B(N);
  Fragment F = B.build(R.get());
  uint32_t Start = N.addState();
  N.addEps(Start, F.In);
  N.setStart(Start);
  N.setAccept(F.Out);
  return Dfa::determinize(N).minimize();
}

const Dfa &DfaCache::get(const RegexPtr &R) {
  auto It = Cache.find(R);
  if (It != Cache.end()) {
    ++Hits;
    return It->second;
  }
  ++Misses;
  return Cache.emplace(R, compileRegex(R)).first->second;
}

bool DfaCache::acceptsAll(const RegexPtr &R,
                          const std::vector<std::string> &Examples) {
  const Dfa &D = get(R);
  for (const std::string &S : Examples)
    if (!D.matches(S))
      return false;
  return true;
}

bool DfaCache::rejectsAll(const RegexPtr &R,
                          const std::vector<std::string> &Examples) {
  const Dfa &D = get(R);
  for (const std::string &S : Examples)
    if (D.matches(S))
      return false;
  return true;
}

bool regel::regexEquivalent(const RegexPtr &A, const RegexPtr &B) {
  if (regexEquals(A, B))
    return true;
  return Dfa::equivalent(compileRegex(A), compileRegex(B));
}
