//===- synth/Approximate.cpp ----------------------------------------------===//

#include "synth/Approximate.h"

#include "regex/Matcher.h"

using namespace regel;

RegexPtr regel::topRegex() {
  static const RegexPtr Top =
      Regex::kleeneStar(Regex::charClass(CharClass::any()));
  return Top;
}

RegexPtr regel::botRegex() {
  static const RegexPtr Bot = Regex::emptySet();
  return Bot;
}

namespace {

bool isTop(const RegexPtr &R) { return regexEquals(R, topRegex()); }
bool isBot(const RegexPtr &R) { return R->getKind() == RegexKind::EmptySet; }

/// Operator application with top/bottom simplification; keeping the
/// approximation regexes small keeps their membership checks cheap.
RegexPtr mkOp(RegexKind K, std::vector<RegexPtr> Kids,
              const std::vector<int> &Ints = {}) {
  switch (K) {
  case RegexKind::Concat:
    if (isBot(Kids[0]) || isBot(Kids[1]))
      return botRegex();
    if (isTop(Kids[0]) && isTop(Kids[1]))
      return topRegex();
    if (Kids[0]->getKind() == RegexKind::Epsilon)
      return Kids[1];
    if (Kids[1]->getKind() == RegexKind::Epsilon)
      return Kids[0];
    break;
  case RegexKind::Or:
    if (isBot(Kids[0]))
      return Kids[1];
    if (isBot(Kids[1]))
      return Kids[0];
    if (isTop(Kids[0]) || isTop(Kids[1]))
      return topRegex();
    break;
  case RegexKind::And:
    if (isBot(Kids[0]) || isBot(Kids[1]))
      return botRegex();
    if (isTop(Kids[0]))
      return Kids[1];
    if (isTop(Kids[1]))
      return Kids[0];
    break;
  case RegexKind::Not:
    if (isBot(Kids[0]))
      return topRegex();
    if (isTop(Kids[0]))
      return botRegex();
    break;
  case RegexKind::Optional:
    if (isBot(Kids[0]))
      return Regex::epsilon();
    if (isTop(Kids[0]))
      return topRegex();
    break;
  case RegexKind::KleeneStar:
    if (isBot(Kids[0]))
      return Regex::epsilon();
    if (isTop(Kids[0]))
      return topRegex();
    break;
  case RegexKind::StartsWith:
  case RegexKind::EndsWith:
  case RegexKind::Contains:
    if (isBot(Kids[0]))
      return botRegex();
    if (isTop(Kids[0]))
      return topRegex();
    break;
  case RegexKind::Repeat:
  case RegexKind::RepeatAtLeast:
  case RegexKind::RepeatRange:
    if (isBot(Kids[0]))
      return botRegex();
    if (isTop(Kids[0]))
      return topRegex();
    break;
  default:
    break;
  }
  return Regex::makeOperator(K, std::move(Kids), Ints);
}

} // namespace

namespace {

Approx approximateSketchUncached(const SketchPtr &S, unsigned Depth,
                                 bool WithClasses, ShardedApproxStore *Memo) {
  switch (S->getKind()) {
  case SketchKind::Concrete:
    // Rule (7): a concrete regex approximates itself.
    return {S->regex(), S->regex()};

  case SketchKind::Op: {
    RegexKind K = S->getOp();
    if (isRepeatFamily(K)) {
      Approx A = approximateSketch(S->children()[0], Depth, false, Memo);
      if (!S->ints().empty()) {
        // Concrete integers: rule (4) of Fig. 11 applies precisely.
        std::vector<int> Ints = S->ints();
        return {mkOp(K, {A.Over}, Ints), mkOp(K, {A.Under}, Ints)};
      }
      // Rule (6): symbolic integers; only "at least one copy" is certain.
      return {mkOp(RegexKind::RepeatAtLeast, {A.Over}, {1}), botRegex()};
    }
    if (K == RegexKind::Not) {
      // Rule (5): negation swaps the approximations.
      Approx A = approximateSketch(S->children()[0], Depth, false, Memo);
      return {mkOp(RegexKind::Not, {A.Under}), mkOp(RegexKind::Not, {A.Over})};
    }
    // Rule (4): apply the operator componentwise.
    std::vector<RegexPtr> Overs, Unders;
    for (const SketchPtr &C : S->children()) {
      Approx A = approximateSketch(C, Depth, false, Memo);
      Overs.push_back(A.Over);
      Unders.push_back(A.Under);
    }
    return {mkOp(K, std::move(Overs)), mkOp(K, std::move(Unders))};
  }

  case SketchKind::Hole: {
    // Rule (3): deep holes approximate to (top, bottom).
    if (Depth > 1 || (S->components().empty() && !WithClasses))
      return {topRegex(), botRegex()};
    // Depth-1 holes: union of component overs / intersection of component
    // unders (rules 1-2). The widened variant contributes every character
    // class: <any> to the over side, bottom to the under side.
    RegexPtr Over = botRegex();
    RegexPtr Under;
    bool First = true;
    for (const SketchPtr &C : S->components()) {
      Approx A = approximateSketch(C, Depth, false, Memo);
      Over = mkOp(RegexKind::Or, {Over, A.Over});
      Under = First ? A.Under : mkOp(RegexKind::And, {Under, A.Under});
      First = false;
    }
    if (WithClasses) {
      Over = mkOp(RegexKind::Or,
                  {Over, Regex::charClass(CharClass::any())});
      Under = botRegex();
    }
    if (First && !WithClasses) // no components at all
      return {topRegex(), botRegex()};
    if (!Under)
      Under = botRegex();
    return {Over, Under};
  }
  }
  assert(false && "unknown sketch kind");
  return {topRegex(), botRegex()};
}

} // namespace

Approx regel::approximateSketch(const SketchPtr &S, unsigned Depth,
                                bool WithClasses, ShardedApproxStore *Memo) {
  // Concrete leaves are trivial; consulting the store for them would only
  // bloat it.
  if (!Memo || S->getKind() == SketchKind::Concrete)
    return approximateSketchUncached(S, Depth, WithClasses, Memo);
  Approx A;
  if (Memo->lookup({S, Depth, WithClasses}, A))
    return A;
  A = approximateSketchUncached(S, Depth, WithClasses, Memo);
  Memo->publish({S, Depth, WithClasses}, A);
  return A;
}

Approx regel::approximatePartial(const PNodePtr &N,
                                 ShardedApproxStore *Memo) {
  switch (N->getKind()) {
  case PLabelKind::LeafLabel:
    return {N->leaf(), N->leaf()};

  case PLabelKind::SketchLabel:
    // Rule (1) of Fig. 11 defers to the sketch judgement.
    return approximateSketch(N->sketch(), N->sketchDepth(),
                             N->sketchWithClasses(), Memo);

  case PLabelKind::OpLabel: {
    RegexKind K = N->op();
    if (isRepeatFamily(K)) {
      Approx A = approximatePartial(N->children()[0], Memo);
      // Rule (4) vs rule (5): precise when all integer slots are assigned.
      bool AllConcrete = true;
      std::vector<int> Ints;
      for (unsigned I = 0; I < numIntArgs(K); ++I) {
        const PNodePtr &C = N->children()[numRegexArgs(K) + I];
        if (C->getKind() == PLabelKind::IntLabel) {
          Ints.push_back(C->intValue());
        } else {
          AllConcrete = false;
          break;
        }
      }
      if (AllConcrete)
        return {mkOp(K, {A.Over}, Ints), mkOp(K, {A.Under}, Ints)};
      return {mkOp(RegexKind::RepeatAtLeast, {A.Over}, {1}), botRegex()};
    }
    if (K == RegexKind::Not) {
      Approx A = approximatePartial(N->children()[0], Memo);
      return {mkOp(RegexKind::Not, {A.Under}), mkOp(RegexKind::Not, {A.Over})};
    }
    std::vector<RegexPtr> Overs, Unders;
    for (unsigned I = 0; I < numRegexArgs(K); ++I) {
      Approx A = approximatePartial(N->children()[I], Memo);
      Overs.push_back(A.Over);
      Unders.push_back(A.Under);
    }
    return {mkOp(K, std::move(Overs)), mkOp(K, std::move(Unders))};
  }

  case PLabelKind::SymIntLabel:
  case PLabelKind::IntLabel:
    break;
  }
  assert(false && "integer slots are handled by their operator");
  return {topRegex(), botRegex()};
}

bool FeasibilityChecker::overAcceptsAllPos(const RegexPtr &Over) {
  auto [It, Inserted] = OverVerdict.try_emplace(Over, true);
  if (Inserted) {
    DirectMatcher M(Over);
    for (const std::string &S : E.Pos)
      if (!M.matches(S)) {
        It->second = false;
        break;
      }
  }
  return It->second;
}

bool FeasibilityChecker::underRejectsAllNeg(const RegexPtr &Under) {
  auto [It, Inserted] = UnderVerdict.try_emplace(Under, true);
  if (Inserted) {
    DirectMatcher M(Under);
    for (const std::string &S : E.Neg)
      if (M.matches(S)) {
        It->second = false;
        break;
      }
  }
  return It->second;
}

bool FeasibilityChecker::infeasible(const PartialRegex &P) {
  ++Checks;
  Approx A = approximatePartial(P.root(), Memo);
  // The over-approximation must accept every positive example.
  if (!isTop(A.Over) && !E.Pos.empty() && !overAcceptsAllPos(A.Over))
    return true;
  // The under-approximation must reject every negative example.
  if (!isBot(A.Under) && !E.Neg.empty() && !underRejectsAllNeg(A.Under))
    return true;
  return false;
}
