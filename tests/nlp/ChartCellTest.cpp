//===- tests/nlp/ChartCellTest.cpp ----------------------------------------===//
//
// A chart cell's dedup identity is the full (category, semantics) pair:
// the hash only picks a bucket, so under a constant hash distinct items
// stay distinct and equal items still merge (best score wins). The cell
// builder's rejection threshold counts each identity once and never beats
// a tie.
//
//===----------------------------------------------------------------------===//

#include "nlp/ChartParser.h"

#include "regex/Parser.h"

#include <gtest/gtest.h>

#include <cmath>

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
  Builder.start(Cell, /*BeamPerCat=*/14);
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
  Builder.finish();

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

// Early rejection drops an offer only when BeamPerCat distinct items score
// strictly higher (CellBuilder::beaten). The next tests pin that threshold.

TEST(CellBuilder, ATieWithTheCutIsNeverBeaten) {
  CellBuilder Builder;
  ChartCell Cell;
  Builder.start(Cell, /*BeamPerCat=*/2);
  Builder.add(item(CatInt, SemValue::intval(1), 3.0));
  Builder.add(item(CatInt, SemValue::intval(2), 2.0));
  // Two items, both at or above any score of interest: not full yet.
  EXPECT_FALSE(Builder.full(CatInt));
  Builder.add(item(CatInt, SemValue::intval(3), 1.0));
  ASSERT_TRUE(Builder.full(CatInt));
  EXPECT_EQ(Builder.threshold(CatInt), 2.0);
  // An equal score arriving later loses the stable sort to the earlier
  // one only when both are there, so a tie must be kept.
  EXPECT_FALSE(Builder.beaten(CatInt, 2.0));
  EXPECT_TRUE(Builder.beaten(CatInt, std::nextafter(2.0, 0.0)));
  Builder.finish();
}

TEST(CellBuilder, AReplacementDoesNotTakeASecondPlace) {
  CellBuilder Builder;
  ChartCell Cell;
  Builder.start(Cell, /*BeamPerCat=*/2);
  Builder.add(item(CatInt, SemValue::intval(1), 3.0));
  Builder.add(item(CatInt, SemValue::intval(2), 1.0));
  Builder.add(item(CatInt, SemValue::intval(3), 0.5));
  // The same identity, better: it moves up, it does not count twice. Had
  // it, the two best would read {4, 3} and 1.5 would look beaten.
  EXPECT_EQ(Builder.add(item(CatInt, SemValue::intval(1), 4.0)),
            CellBuilder::Outcome::Replaced);
  EXPECT_EQ(Builder.threshold(CatInt), 1.0);
  EXPECT_FALSE(Builder.beaten(CatInt, 1.5));
  EXPECT_EQ(Builder.add(item(CatInt, SemValue::intval(1), 4.0)),
            CellBuilder::Outcome::Tied);
  EXPECT_EQ(Builder.add(item(CatInt, SemValue::intval(1), 2.0)),
            CellBuilder::Outcome::Dropped);
  Builder.finish();
  ASSERT_EQ(Cell.ByCat[CatInt].size(), 2u);
  EXPECT_EQ(Cell.ByCat[CatInt][0].Score, 4.0);
  EXPECT_EQ(Cell.ByCat[CatInt][1].Score, 1.0);
}

TEST(CellBuilder, AFullBucketDoesNotMakeItsImagesBucketFull) {
  // A program beaten in its own full bucket may still place its unary
  // image (here a sketch) in a bucket that has room; the parser drops an
  // offer only when every image's bucket is full() and beats it too
  // (ChartRejection.NarrowBeams exercises that on whole parses).
  CellBuilder Builder;
  ChartCell Cell;
  Builder.start(Cell, /*BeamPerCat=*/2);
  for (const char *P : {"<num>", "<let>", "<cap>"})
    Builder.add(item(CatProgram, re(P), 1.0));
  Builder.add(item(CatSketch, SemValue::sketch(sk("<num>")), 1.0));
  EXPECT_TRUE(Builder.beaten(CatProgram, 0.0));
  EXPECT_FALSE(Builder.full(CatSketch));
  EXPECT_FALSE(Builder.beaten(CatSketch, -100.0));
  Builder.finish();
}

TEST(CellBuilder, OnlyTiesAmongItemsAfterADropAreLate) {
  // BeamPerCat 2. Two items score 4; an offer scoring 3 is dropped (two
  // items beat it). A build that applied it would have given its identity
  // the drop's slot, which may sort before items that arrived later: only
  // a tie between two such items, at or above the cut, leaves their order
  // unknown (and makes the parser rebuild the cell without dropping).
  CellBuilder Builder;
  ChartCell Cell;
  Builder.start(Cell, /*BeamPerCat=*/2);
  Builder.add(item(CatInt, SemValue::intval(1), 4.0));
  Builder.add(item(CatInt, SemValue::intval(2), 4.0));
  Builder.add(item(CatInt, SemValue::intval(3), 0.0));
  EXPECT_FALSE(Builder.lateTie(CatInt));
  ASSERT_TRUE(Builder.beaten(CatInt, 3.0));
  Builder.rejected(CatInt, 3.0, Builder.stampDrop());
  // A late item tying with the early ones: the early ones keep their
  // earlier slots either way.
  Builder.add(item(CatInt, SemValue::intval(7), 4.0));
  EXPECT_FALSE(Builder.lateTie(CatInt));
  // Two late items tying below the cut are cut either way.
  Builder.add(item(CatInt, SemValue::intval(8), 1.0));
  Builder.add(item(CatInt, SemValue::intval(9), 1.0));
  EXPECT_FALSE(Builder.lateTie(CatInt));
  // Two late items tying at the cut.
  Builder.add(item(CatInt, SemValue::intval(10), 5.0));
  Builder.add(item(CatInt, SemValue::intval(11), 4.0));
  EXPECT_TRUE(Builder.lateTie(CatInt));
  // An untouched category has no late items.
  Builder.add(item(CatProgram, re("<num>"), 1.0));
  Builder.add(item(CatProgram, re("<let>"), 1.0));
  EXPECT_FALSE(Builder.lateTie(CatProgram));
  Builder.finish();
}

TEST(SemValue, EqualityIsStructural) {
  EXPECT_TRUE(SemValue::none() == SemValue::none());
  EXPECT_TRUE(SemValue::sketch(sk("Concat(<a>,<b>)")) ==
              SemValue::sketch(sk("Concat(<a>,<b>)")));
  EXPECT_FALSE(SemValue::sketch(sk("<a>")) == SemValue::sketch(sk("<b>")));
  EXPECT_FALSE(SemValue::intval(2) == SemValue::sketch(sk("<num>")));
}
