//===- tests/synth/PartialRegexTest.cpp -----------------------------------===//

#include "synth/PartialRegex.h"

#include "regex/Parser.h"
#include "sketch/SketchParser.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace regel;

TEST(Examples, MaxLength) {
  Examples E;
  E.Pos = {"ab", "abcd"};
  E.Neg = {"x", "yyyyy"};
  EXPECT_EQ(E.maxLength(), 5u);
  Examples Empty;
  EXPECT_EQ(Empty.maxLength(), 0u);
}

TEST(PartialRegex, InitialIsOpen) {
  SketchPtr S = parseSketch("Concat(hole{<a>},hole{<b>})");
  PartialRegex P = PartialRegex::initial(S, 3);
  EXPECT_TRUE(P.hasOpenNode());
  EXPECT_FALSE(P.isConcrete());
  EXPECT_FALSE(P.isSymbolic());
  EXPECT_EQ(P.size(), 1u);
  EXPECT_EQ(P.root()->sketchDepth(), 3u);
  EXPECT_FALSE(P.root()->sketchWithClasses());
}

TEST(PartialRegex, UnconstrainedInitialIsWidened) {
  PartialRegex P = PartialRegex::initial(Sketch::unconstrained(), 2);
  EXPECT_TRUE(P.root()->sketchWithClasses());
}

TEST(PartialRegex, LeafOnlyIsConcrete) {
  PartialRegex P(PNode::leafNode(parseRegex("Concat(<a>,<b>)")), 0);
  EXPECT_TRUE(P.isConcrete());
  EXPECT_TRUE(regexEquals(P.toRegex(), parseRegex("Concat(<a>,<b>)")));
}

namespace {

/// Concat(RepeatRange(<num>, k0, k1), <.>): a symbolic partial regex.
PartialRegex makeSymbolic() {
  PNodePtr Left = PNode::opNode(
      RegexKind::RepeatRange,
      {PNode::leafNode(parseRegex("<num>")), PNode::symIntNode(0),
       PNode::symIntNode(1)});
  PNodePtr Root = PNode::opNode(
      RegexKind::Concat, {Left, PNode::leafNode(parseRegex("<.>"))});
  return PartialRegex(Root, 2);
}

} // namespace

TEST(PartialRegex, SymbolicDetection) {
  PartialRegex P = makeSymbolic();
  EXPECT_TRUE(P.isSymbolic());
  EXPECT_FALSE(P.isConcrete());
  EXPECT_FALSE(P.hasOpenNode());
  EXPECT_EQ(P.numSymInts(), 2u);
}

TEST(PartialRegex, SelectSymIntFindsLeftmost) {
  PartialRegex P = makeSymbolic();
  uint32_t Sym = 99;
  auto Path = P.selectSymInt(Sym);
  ASSERT_TRUE(Path.has_value());
  EXPECT_EQ(Sym, 0u);
}

TEST(PartialRegex, AssignSymIntSubstitutes) {
  PartialRegex P = makeSymbolic();
  PartialRegex P1 = P.assignSymInt(0, 2).assignSymInt(1, 5);
  EXPECT_TRUE(P1.isConcrete());
  EXPECT_TRUE(regexEquals(P1.toRegex(),
                          parseRegex("Concat(RepeatRange(<num>,2,5),<.>)")));
  // The original is unchanged (persistent trees).
  EXPECT_TRUE(P.isSymbolic());
}

TEST(PartialRegex, SelectOpenNodeLeftmost) {
  SketchPtr S = parseSketch("Concat(hole{<a>},hole{<b>})");
  PartialRegex P0 = PartialRegex::initial(S, 2);
  // Expand the root sketch-op by hand: Concat(holeA, holeB).
  PNodePtr Root = PNode::opNode(
      RegexKind::Concat,
      {PNode::sketchNode(parseSketch("hole{<a>}"), 2, false),
       PNode::sketchNode(parseSketch("hole{<b>}"), 2, false)});
  PartialRegex P(Root, 0);
  auto Path = P.selectOpenNode();
  ASSERT_TRUE(Path.has_value());
  EXPECT_EQ(*Path, NodePath{0});
}

TEST(PartialRegex, ReplaceAtRebuildsSpine) {
  PNodePtr Root = PNode::opNode(
      RegexKind::Concat,
      {PNode::sketchNode(parseSketch("hole{<a>}"), 2, false),
       PNode::sketchNode(parseSketch("hole{<b>}"), 2, false)});
  PartialRegex P(Root, 0);
  PartialRegex Q = P.replaceAt({0}, PNode::leafNode(parseRegex("<a>")), 0);
  EXPECT_EQ(Q.nodeAt({0})->getKind(), PLabelKind::LeafLabel);
  EXPECT_EQ(Q.nodeAt({1})->getKind(), PLabelKind::SketchLabel);
  // Untouched sibling is shared between the trees.
  EXPECT_EQ(P.nodeAt({1}), Q.nodeAt({1}));
}

TEST(PartialRegex, CountsAndStr) {
  PartialRegex P = makeSymbolic();
  // Concat + (RepeatRange + <num> leaf + 2 int slots) + <.> leaf.
  EXPECT_EQ(P.size(), 6u);
  EXPECT_EQ(P.numOpenNodes(), 0u);
  EXPECT_NE(P.str().find("RepeatRange"), std::string::npos);
  EXPECT_NE(P.str().find("k0"), std::string::npos);
}

TEST(PartialRegex, HashDistinguishesLabels) {
  PartialRegex A = makeSymbolic();
  PartialRegex B = A.assignSymInt(0, 3);
  EXPECT_NE(A.root()->hash(), B.root()->hash());
  PartialRegex C = makeSymbolic();
  EXPECT_EQ(A.root()->hash(), C.root()->hash());
}

TEST(PNodePtrEq, IdentityIsTheFullTreeEvenUnderAConstantHash) {
  // A degenerate hash puts every node in one bucket, so only PNodePtrEq
  // decides what is a duplicate.
  struct ConstHash {
    size_t operator()(const PNodePtr &) const { return 42; }
  };
  std::unordered_set<PNodePtr, ConstHash, PNodePtrEq> Set;
  SketchPtr S = parseSketch("hole{<a>}");
  PNodePtr A = PNode::leafNode(parseRegex("<a>"));
  PNodePtr B = PNode::leafNode(parseRegex("<b>"));
  auto Repeat = [](PNodePtr Arg, PNodePtr K) {
    return PNode::opNode(RegexKind::Repeat, {std::move(Arg), std::move(K)});
  };
  const std::vector<PNodePtr> Distinct = {
      PNode::symIntNode(1),
      PNode::symIntNode(2), // differs only in Sym
      PNode::intNode(3),
      PNode::intNode(4), // differs only in Value
      PNode::sketchNode(S, 2, false),
      PNode::sketchNode(S, 3, false), // differs only in Depth
      PNode::sketchNode(S, 2, true),  // differs only in WithClasses
      PNode::opNode(RegexKind::Concat, {A, B}),
      PNode::opNode(RegexKind::Concat, {B, A}), // differs only in order
      Repeat(A, PNode::symIntNode(1)),
      Repeat(A, PNode::intNode(3)),
  };
  for (const PNodePtr &N : Distinct)
    EXPECT_TRUE(Set.insert(N).second);
  EXPECT_EQ(Set.size(), Distinct.size());

  // Equal trees built separately (fresh nodes, no shared pointers) dedup.
  const std::vector<PNodePtr> Rebuilt = {
      PNode::symIntNode(2),
      PNode::intNode(4),
      PNode::sketchNode(parseSketch("hole{<a>}"), 3, false),
      PNode::opNode(RegexKind::Concat,
                    {PNode::leafNode(parseRegex("<b>")),
                     PNode::leafNode(parseRegex("<a>"))}),
      Repeat(PNode::leafNode(parseRegex("<a>")), PNode::symIntNode(1)),
  };
  for (const PNodePtr &N : Rebuilt) {
    EXPECT_FALSE(Set.insert(N).second);
    EXPECT_TRUE(pnodeEquals(N, *Set.find(N)));
    EXPECT_EQ(PNodePtrHash()(N), PNodePtrHash()(*Set.find(N)));
  }
  EXPECT_EQ(Set.size(), Distinct.size());
  EXPECT_FALSE(pnodeEquals(nullptr, A));
  EXPECT_TRUE(pnodeEquals(nullptr, nullptr));
}
