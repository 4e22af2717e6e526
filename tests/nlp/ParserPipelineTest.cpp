//===- tests/nlp/ParserPipelineTest.cpp -----------------------------------===//
//
// End-to-end tests of the semantic parser: canonical English in, expected
// sketch (or a concrete regex reading) among the top candidates.
//
//===----------------------------------------------------------------------===//

#include "nlp/SemanticParser.h"
#include "sketch/SketchParser.h"

#include <gtest/gtest.h>

using namespace regel;
using namespace regel::nlp;

namespace {

SemanticParser &parser() {
  static SemanticParser P; // grammar construction is mildly expensive
  return P;
}

/// True if \p Expected (sketch text) appears among the top-N sketches.
bool topContains(const std::string &Utterance, const char *Expected,
                 unsigned TopN = 10) {
  SketchPtr Want = parseSketch(Expected);
  EXPECT_TRUE(Want) << Expected;
  auto Got = parser().parse(Utterance, TopN);
  for (const ScoredSketch &S : Got)
    if (sketchEquals(S.Sketch, Want))
      return true;
  return false;
}

} // namespace

TEST(SemanticParser, GrammarIsNontrivial) {
  // The transcription of Appendix B gives a substantial rule set.
  EXPECT_GE(parser().grammar().rules().size(), 50u);
  EXPECT_GE(parser().featureSpace().size(), 60u);
}

TEST(SemanticParser, SimpleConcat) {
  EXPECT_TRUE(topContains("a letter followed by 3 digits",
                          "Concat(<let>,Repeat(<num>,3))"));
}

TEST(SemanticParser, RepeatVariants) {
  EXPECT_TRUE(topContains("exactly 4 hex digits", "hole{Repeat(<hex>,4)}"));
  EXPECT_TRUE(topContains("3 or more vowels", "hole{RepeatAtLeast(<vow>,3)}"));
  EXPECT_TRUE(topContains("at least 2 capital letters",
                          "hole{RepeatAtLeast(<cap>,2)}"));
  EXPECT_TRUE(topContains("up to 5 digits", "hole{RepeatRange(<num>,1,5)}"));
  EXPECT_TRUE(
      topContains("2 to 6 letters", "hole{RepeatRange(<let>,2,6)}"));
}

TEST(SemanticParser, StartEndContain) {
  EXPECT_TRUE(topContains("strings that start with a capital letter",
                          "hole{StartsWith(<cap>)}"));
  EXPECT_TRUE(topContains("must end with a semicolon", "hole{EndsWith(<;>)}"));
  EXPECT_TRUE(topContains("should contain a digit", "hole{Contains(<num>)}"));
}

TEST(SemanticParser, NotContain) {
  EXPECT_TRUE(topContains("must not contain a space",
                          "hole{Not(Contains(<space>))}"));
}

TEST(SemanticParser, QuotedConstant) {
  EXPECT_TRUE(topContains("lines containing the word 'cat'",
                          "hole{Contains(Concat(<c>,Concat(<a>,<t>)))}"));
}

TEST(SemanticParser, SeparatedBy) {
  EXPECT_TRUE(topContains(
      "numbers separated by commas",
      "hole{Concat(<num>,KleeneStar(Concat(<,>,<num>)))}"));
}

TEST(SemanticParser, OrOfPrograms) {
  EXPECT_TRUE(topContains("either 6 digits or 8 digits",
                          "Or(hole{Repeat(<num>,6)},hole{Repeat(<num>,8)})",
                          15) ||
              topContains("either 6 digits or 8 digits",
                          "hole{Or(Repeat(<num>,6),Repeat(<num>,8))}", 15));
}

TEST(SemanticParser, MultiComponentHole) {
  EXPECT_TRUE(topContains(
      "strings that start with a letter and end with a digit",
      "hole{StartsWith(<let>),EndsWith(<num>)}", 15));
}

TEST(SemanticParser, ScoresAreDescending) {
  auto Got = parser().parse("3 digits then a dash then 4 digits", 25);
  ASSERT_FALSE(Got.empty());
  for (size_t I = 1; I < Got.size(); ++I)
    EXPECT_GE(Got[I - 1].Score, Got[I].Score);
}

TEST(SemanticParser, SketchesAreDistinct) {
  // parse() merges derivations by full structural equality, never by
  // hash: its output is exactly the first-occurrence dedup of the ranked
  // root derivations, with no two entries equal.
  for (const char *U :
       {"2 letters followed by a comma", "3 digits then a dash then 4 digits",
        "a letter or a digit then a comma",
        "strings that start with a capital letter and end with a digit"}) {
    auto Got = parser().parse(U, 25);
    for (size_t I = 0; I < Got.size(); ++I)
      for (size_t J = I + 1; J < Got.size(); ++J)
        EXPECT_FALSE(Got[I].Sketch->equals(*Got[J].Sketch)) << U;

    std::vector<SketchPtr> Want;
    for (const Derivation &D : parser().parseDerivations(U)) {
      SketchPtr S = D.Val.asSketch();
      if (!S)
        continue;
      bool Dup = false;
      for (const SketchPtr &W : Want)
        Dup = Dup || W->equals(*S);
      if (!Dup)
        Want.push_back(S);
      if (Want.size() >= 25)
        break;
    }
    ASSERT_EQ(Got.size(), Want.size()) << U;
    for (size_t I = 0; I < Got.size(); ++I)
      EXPECT_TRUE(Got[I].Sketch->equals(*Want[I])) << U << " rank " << I;
  }
}

TEST(SemanticParser, GibberishYieldsNoParse) {
  auto Got = parser().parse("qwerty asdf zxcv", 5);
  EXPECT_TRUE(Got.empty());
}

TEST(SemanticParser, LongNoisySentenceStillParses) {
  auto Got = parser().parse(
      "I was wondering, and this is maybe silly, whether someone could help "
      "me write a pattern for exactly 3 digits followed by a dash",
      25);
  EXPECT_FALSE(Got.empty());
}

TEST(SemanticParser, TopNRespected) {
  auto Got = parser().parse("a letter or a digit then a comma", 3);
  EXPECT_LE(Got.size(), 3u);
}
