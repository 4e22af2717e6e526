//===- tests/nlp/ChartCellTest.cpp ----------------------------------------===//
//
// A chart cell's dedup identity is the full (category, semantics) pair:
// the hash only picks a bucket, so under a constant hash distinct items
// stay distinct and equal items still merge (best score wins).
//
//===----------------------------------------------------------------------===//

#include "nlp/ChartParser.h"

#include "regex/Parser.h"

#include <gtest/gtest.h>

using namespace regel;
using namespace regel::nlp;

namespace {

Derivation item(Cat C, SemValue V, double Score) {
  Derivation D;
  D.Category = C;
  D.Val = std::move(V);
  D.Score = Score;
  return D;
}

SemValue re(const char *Text) { return SemValue::regex(parseRegex(Text)); }

SketchPtr sk(const char *Text) { return Sketch::concrete(parseRegex(Text)); }

} // namespace

TEST(CellBuilder, IdentityIsTheFullKeyEvenUnderAConstantHash) {
  CellBuilder Builder([](const Derivation &) -> size_t { return 7; });
  ChartCell Cell;
  Builder.start(Cell);
  Builder.add(item(CatInt, SemValue::intval(3), 1.0));
  Builder.add(item(CatInt, SemValue::intval(4), 2.0));
  // Same identity, better score: replaces the first item in place.
  Builder.add(item(CatInt, SemValue::intval(3), 5.0));
  // Same identity, worse score: dropped.
  Builder.add(item(CatInt, SemValue::intval(4), 0.5));
  // Same semantics under another category: a different item.
  Builder.add(item(CatConst, SemValue::intval(3), 1.0));
  // Structurally equal regexes built separately are one item; a
  // different regex is another.
  Builder.add(item(CatProgram, re("Repeat(<num>,2)"), 1.0));
  Builder.add(item(CatProgram, re("Repeat(<num>,2)"), 3.0));
  Builder.add(item(CatProgram, re("Repeat(<num>,3)"), 2.0));
  // Lists compare element-wise, in order.
  Builder.add(item(CatList, SemValue::list({sk("<num>"), sk("<let>")}), 1.0));
  Builder.add(item(CatList, SemValue::list({sk("<num>"), sk("<let>")}), 1.0));
  Builder.add(item(CatList, SemValue::list({sk("<let>"), sk("<num>")}), 1.0));
  Builder.add(item(CatList, SemValue::list({sk("<num>")}), 1.0));
  Builder.finish(/*BeamPerCat=*/14);

  EXPECT_EQ(Cell.Count, 8u);
  const std::vector<Derivation> &Ints = Cell.ByCat[CatInt];
  ASSERT_EQ(Ints.size(), 2u);
  EXPECT_EQ(Ints[0].Val.I, 3);
  EXPECT_EQ(Ints[0].Score, 5.0);
  EXPECT_EQ(Ints[1].Val.I, 4);
  EXPECT_EQ(Ints[1].Score, 2.0);
  ASSERT_EQ(Cell.ByCat[CatConst].size(), 1u);
  const std::vector<Derivation> &Programs = Cell.ByCat[CatProgram];
  ASSERT_EQ(Programs.size(), 2u);
  EXPECT_EQ(Programs[0].Score, 3.0);
  EXPECT_TRUE(regexEquals(Programs[1].Val.R, parseRegex("Repeat(<num>,3)")));
  EXPECT_EQ(Cell.ByCat[CatList].size(), 3u);
}

TEST(SemValue, EqualityIsStructural) {
  EXPECT_TRUE(SemValue::none() == SemValue::none());
  EXPECT_TRUE(SemValue::sketch(sk("Concat(<a>,<b>)")) ==
              SemValue::sketch(sk("Concat(<a>,<b>)")));
  EXPECT_FALSE(SemValue::sketch(sk("<a>")) == SemValue::sketch(sk("<b>")));
  EXPECT_FALSE(SemValue::intval(2) == SemValue::sketch(sk("<num>")));
}
