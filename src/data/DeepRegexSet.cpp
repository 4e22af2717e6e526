//===- data/DeepRegexSet.cpp ----------------------------------------------===//

#include "data/DeepRegexSet.h"

#include "data/ExampleGen.h"
#include "support/Random.h"

#include <cstring>
#include <unordered_set>

using namespace regel;
using namespace regel::data;

namespace {

/// A unit: a small regex plus its English rendering (singular/plural as
/// needed is baked into the text).
struct Unit {
  RegexPtr R;
  std::string Text;
};

struct Vocab {
  CharClass Class;
  const char *Singular;
  const char *Plural;
};

const Vocab ClassVocab[] = {
    {CharClass::num(), "digit", "digits"},
    {CharClass::let(), "letter", "letters"},
    {CharClass::cap(), "capital letter", "capital letters"},
    {CharClass::low(), "lower case letter", "lower case letters"},
    {CharClass::vow(), "vowel", "vowels"},
    {CharClass::alphaNum(), "alphanumeric character", "alphanumeric characters"},
    {CharClass::hex(), "hex digit", "hex digits"},
};

struct ConstVocab {
  char C;
  const char *Name;
  const char *PluralName;
};

const ConstVocab ConstsVocab[] = {
    {',', "comma", "commas"},       {'-', "dash", "dashes"},
    {'.', "dot", "dots"},           {'_', "underscore", "underscores"},
    {':', "colon", "colons"},       {'+', "plus sign", "plus signs"},
    {'/', "slash", "slashes"},      {';', "semicolon", "semicolons"},
};

/// Samples a repetition unit over one character class.
Unit sampleUnit(Rng &R) {
  const Vocab &V =
      ClassVocab[R.nextBelow(std::size(ClassVocab))];
  RegexPtr C = Regex::charClass(V.Class);
  switch (R.nextBelow(6)) {
  case 0: { // exactly one
    return {C, std::string("a ") + V.Singular};
  }
  case 1: { // exactly k
    int K = static_cast<int>(R.nextInRange(2, 6));
    return {Regex::repeat(C, K), std::to_string(K) + " " + V.Plural};
  }
  case 2: { // k or more
    int K = static_cast<int>(R.nextInRange(1, 4));
    const char *Form = R.chance(1, 2) ? " or more " : " or more ";
    return {Regex::repeatAtLeast(C, K),
            std::to_string(K) + Form + V.Plural};
  }
  case 3: { // at least k
    int K = static_cast<int>(R.nextInRange(1, 4));
    return {Regex::repeatAtLeast(C, K),
            std::string("at least ") + std::to_string(K) + " " + V.Plural};
  }
  case 4: { // up to k
    int K = static_cast<int>(R.nextInRange(2, 6));
    const char *Form = R.chance(1, 2) ? "up to " : "at most ";
    return {Regex::repeatRange(C, 1, K),
            Form + std::to_string(K) + " " + V.Plural};
  }
  default: { // k1 to k2
    int K1 = static_cast<int>(R.nextInRange(1, 4));
    int K2 = K1 + static_cast<int>(R.nextInRange(1, 4));
    return {Regex::repeatRange(C, K1, K2),
            std::to_string(K1) + " to " + std::to_string(K2) + " " + V.Plural};
  }
  }
}

Unit sampleConst(Rng &R) {
  const ConstVocab &V = ConstsVocab[R.nextBelow(std::size(ConstsVocab))];
  return {Regex::literal(V.C), std::string("a ") + V.Name};
}

const char *concatWord(Rng &R) {
  switch (R.nextBelow(3)) {
  case 0:
    return " followed by ";
  case 1:
    return " then ";
  default:
    return " before ";
  }
}

/// One full (regex, English) sample.
struct Sample {
  RegexPtr R;
  std::string Text;
};

/// Crowd-worker paraphrase noise (the original set was paraphrased by
/// Mechanical Turkers, which is what keeps the NL-only baseline's accuracy
/// moderate, Sec. 7). About half the descriptions get perturbed: some
/// perturbations are harmless filler, others garble an operator word in a
/// way that examples can disambiguate but pure translation cannot.
std::string paraphrase(std::string Text, Rng &R) {
  if (!R.chance(60, 100))
    return Text;
  auto ReplaceFirst = [&](const char *From, const char *To) {
    size_t At = Text.find(From);
    if (At == std::string::npos)
      return false;
    Text = Text.substr(0, At) + To + Text.substr(At + std::strlen(From));
    return true;
  };
  // Prefer a marker-garbling rewrite; different workers garble different
  // things, so rotate the starting point.
  uint64_t Start = R.nextBelow(4);
  for (uint64_t I = 0; I < 4; ++I) {
    switch ((Start + I) % 4) {
    case 0: // conjunction instead of sequencing ("and" reads as a set)
      if (ReplaceFirst(" followed by ", " and "))
        return Text;
      break;
    case 1: // vague positional wording replaces the marker
      if (ReplaceFirst("strings that start with ", "put at the front "))
        return Text;
      if (ReplaceFirst("lines starting with ", "put at the front "))
        return Text;
      break;
    case 2: // sloppy arithmetic wording
      if (ReplaceFirst(" or more ", " plus "))
        return Text;
      break;
    case 3: // sequencing word dropped entirely
      if (ReplaceFirst(" then ", " "))
        return Text;
      break;
    }
  }
  // Nothing applicable: harmless filler (skipping absorbs it).
  return R.chance(1, 2)
             ? "i need a regular expression that matches " + Text
             : Text + ", can anyone help me with this";
}

Sample sampleBenchmark(Rng &R) {
  switch (R.nextBelow(10)) {
  case 0: { // unit alone
    Unit U = sampleUnit(R);
    return {U.R, U.Text};
  }
  case 1: { // concat of two units
    Unit A = sampleUnit(R), B = R.chance(1, 3) ? sampleConst(R) : sampleUnit(R);
    const char *W = concatWord(R);
    if (std::string(W) == " before ")
      return {Regex::concat(A.R, B.R), B.Text + " after " + A.Text};
    return {Regex::concat(A.R, B.R), A.Text + W + B.Text};
  }
  case 2: { // concat of three units
    Unit A = sampleUnit(R), B = sampleConst(R), C = sampleUnit(R);
    return {Regex::concat(A.R, Regex::concat(B.R, C.R)),
            A.Text + concatWord(R) + B.Text + concatWord(R) + C.Text};
  }
  case 3: { // disjunction
    Unit A = sampleUnit(R), B = sampleUnit(R);
    const char *Lead = R.chance(1, 2) ? "either " : "";
    return {Regex::orOf(A.R, B.R), Lead + A.Text + " or " + B.Text};
  }
  case 4: { // starts with
    Unit A = sampleUnit(R);
    const char *Lead = R.chance(1, 2) ? "strings that start with "
                                      : "lines starting with ";
    return {Regex::startsWith(A.R), Lead + A.Text};
  }
  case 5: { // ends with
    Unit A = sampleUnit(R);
    const char *Lead = R.chance(1, 2) ? "strings that end with "
                                      : "lines ending with ";
    return {Regex::endsWith(A.R), Lead + A.Text};
  }
  case 6: { // contains
    Unit A = sampleUnit(R);
    const char *Lead = R.chance(1, 2) ? "strings containing "
                                      : "lines that contain ";
    return {Regex::contains(A.R), Lead + A.Text};
  }
  case 7: { // separated by
    Unit A = sampleUnit(R);
    const ConstVocab &V = ConstsVocab[R.nextBelow(std::size(ConstsVocab))];
    RegexPtr Sep =
        Regex::concat(A.R, Regex::kleeneStar(
                               Regex::concat(Regex::literal(V.C), A.R)));
    return {Sep, A.Text + " separated by " + V.PluralName};
  }
  case 8: { // start-and-end conjunction
    Unit A = sampleUnit(R), B = sampleUnit(R);
    return {Regex::andOf(Regex::startsWith(A.R), Regex::endsWith(B.R)),
            std::string("strings that start with ") + A.Text +
                " and end with " + B.Text};
  }
  default: { // optional tail
    Unit A = sampleUnit(R), B = sampleConst(R);
    return {Regex::concat(A.R, Regex::optional(B.R)),
            A.Text + " then optionally " + B.Text};
  }
  }
}

} // namespace

SketchPtr regel::data::rootHoleSketch(const RegexPtr &GroundTruth) {
  // Sec. 7: "we replace the root operator op in r with a hole whose
  // components are op's arguments".
  if (!isOperatorKind(GroundTruth->getKind()))
    return Sketch::hole({Sketch::concrete(GroundTruth)});
  std::vector<SketchPtr> Components;
  for (const RegexPtr &C : GroundTruth->children())
    Components.push_back(Sketch::concrete(C));
  return Sketch::hole(std::move(Components));
}

std::vector<Benchmark> regel::data::deepRegexSet(unsigned Count,
                                                 uint64_t Seed) {
  std::vector<Benchmark> Out;
  Rng R(Seed);
  std::unordered_set<RegexPtr, RegexPtrHash, RegexPtrEq> SeenRegex;
  unsigned Attempts = 0;
  while (Out.size() < Count && ++Attempts < Count * 50) {
    Sample S = sampleBenchmark(R);
    S.Text = paraphrase(std::move(S.Text), R);
    if (!SeenRegex.insert(S.R).second)
      continue; // regex duplicates make the accuracy metric ambiguous
    GeneratedExamples E = generateExamples(S.R, R);
    if (!E.Ok)
      continue;
    Benchmark B;
    B.Id = "dr-" + std::to_string(Out.size() + 1);
    B.Description = S.Text;
    B.Initial = std::move(E.Initial);
    B.ExtraPos = std::move(E.ExtraPos);
    B.ExtraNeg = std::move(E.ExtraNeg);
    B.GroundTruth = S.R;
    B.GoldSketch = rootHoleSketch(S.R);
    Out.push_back(std::move(B));
  }
  return Out;
}
