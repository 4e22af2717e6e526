//===- synth/PartialRegex.cpp ---------------------------------------------===//

#include "synth/PartialRegex.h"

#include "regex/Printer.h"

#include <algorithm>

using namespace regel;

size_t Examples::maxLength() const {
  size_t M = 0;
  for (const std::string &S : Pos)
    M = std::max(M, S.size());
  for (const std::string &S : Neg)
    M = std::max(M, S.size());
  return M;
}

PNodePtr PNode::sketchNode(SketchPtr S, unsigned Depth, bool WithClasses) {
  assert(S && "null sketch label");
  return PNodePtr(new PNode(PLabelKind::SketchLabel, std::move(S), Depth,
                            WithClasses, RegexKind::Concat, nullptr, 0, 0,
                            {}));
}

PNodePtr PNode::opNode(RegexKind Op, std::vector<PNodePtr> Children) {
  assert(Children.size() == numRegexArgs(Op) + numIntArgs(Op) &&
         "operator node child-count mismatch");
  return PNodePtr(new PNode(PLabelKind::OpLabel, nullptr, 0, false, Op,
                            nullptr, 0, 0, std::move(Children)));
}

PNodePtr PNode::leafNode(RegexPtr R) {
  assert(R && "null leaf regex");
  return PNodePtr(new PNode(PLabelKind::LeafLabel, nullptr, 0, false,
                            RegexKind::Concat, std::move(R), 0, 0, {}));
}

PNodePtr PNode::symIntNode(uint32_t Id) {
  return PNodePtr(new PNode(PLabelKind::SymIntLabel, nullptr, 0, false,
                            RegexKind::Concat, nullptr, Id, 0, {}));
}

PNodePtr PNode::intNode(int Value) {
  assert(Value >= 1 && "Repeat-family integers are positive");
  return PNodePtr(new PNode(PLabelKind::IntLabel, nullptr, 0, false,
                            RegexKind::Concat, nullptr, 0, Value, {}));
}

bool PNode::equals(const PNode &Other) const {
  if (this == &Other)
    return true;
  if (Kind != Other.Kind || Hash != Other.Hash || Depth != Other.Depth ||
      WithClasses != Other.WithClasses || Op != Other.Op ||
      Sym != Other.Sym || Value != Other.Value ||
      Children.size() != Other.Children.size())
    return false;
  if (!sketchEquals(Sk, Other.Sk) || !regexEquals(Leaf, Other.Leaf))
    return false;
  for (size_t I = 0; I < Children.size(); ++I)
    if (!Children[I]->equals(*Other.Children[I]))
      return false;
  return true;
}

bool regel::pnodeEquals(const PNodePtr &A, const PNodePtr &B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  return A->equals(*B);
}

PartialRegex PartialRegex::initial(SketchPtr S, unsigned DepthBudget) {
  bool Unconstrained = S->getKind() == SketchKind::Hole &&
                       S->components().empty();
  return PartialRegex(
      PNode::sketchNode(std::move(S), DepthBudget, Unconstrained), 0);
}

namespace {

bool anyNode(const PNodePtr &N, PLabelKind K) {
  if (N->getKind() == K)
    return true;
  for (const PNodePtr &C : N->children())
    if (anyNode(C, K))
      return true;
  return false;
}

bool findFirst(const PNodePtr &N, PLabelKind K, NodePath &Path,
               const PNode *&Found) {
  if (N->getKind() == K) {
    Found = N.get();
    return true;
  }
  for (unsigned I = 0; I < N->children().size(); ++I) {
    Path.push_back(I);
    if (findFirst(N->children()[I], K, Path, Found))
      return true;
    Path.pop_back();
  }
  return false;
}

unsigned countNodes(const PNodePtr &N) {
  unsigned Total = 1;
  for (const PNodePtr &C : N->children())
    Total += countNodes(C);
  return Total;
}

unsigned countKind(const PNodePtr &N, PLabelKind K) {
  unsigned Total = N->getKind() == K ? 1 : 0;
  for (const PNodePtr &C : N->children())
    Total += countKind(C, K);
  return Total;
}

PNodePtr rebuild(const PNodePtr &N, const NodePath &Path, size_t Idx,
                 const PNodePtr &NewNode) {
  if (Idx == Path.size())
    return NewNode;
  assert(N->getKind() == PLabelKind::OpLabel && "path through non-op node");
  std::vector<PNodePtr> Kids = N->children();
  assert(Path[Idx] < Kids.size() && "path index out of range");
  Kids[Path[Idx]] = rebuild(Kids[Path[Idx]], Path, Idx + 1, NewNode);
  return PNode::opNode(N->op(), std::move(Kids));
}

PNodePtr substSymInt(const PNodePtr &N, uint32_t SymId, int Value,
                     bool &Changed) {
  if (N->getKind() == PLabelKind::SymIntLabel && N->symInt() == SymId) {
    Changed = true;
    return PNode::intNode(Value);
  }
  if (N->children().empty())
    return N;
  std::vector<PNodePtr> Kids = N->children();
  bool Local = false;
  for (PNodePtr &K : Kids)
    K = substSymInt(K, SymId, Value, Local);
  if (!Local)
    return N;
  Changed = true;
  assert(N->getKind() == PLabelKind::OpLabel && "children imply op node");
  return PNode::opNode(N->op(), std::move(Kids));
}

RegexPtr nodeToRegex(const PNodePtr &N) {
  switch (N->getKind()) {
  case PLabelKind::LeafLabel:
    return N->leaf();
  case PLabelKind::OpLabel: {
    RegexKind K = N->op();
    std::vector<RegexPtr> Rs;
    std::vector<int> Ints;
    for (unsigned I = 0; I < numRegexArgs(K); ++I)
      Rs.push_back(nodeToRegex(N->children()[I]));
    for (unsigned I = 0; I < numIntArgs(K); ++I) {
      const PNodePtr &C = N->children()[numRegexArgs(K) + I];
      assert(C->getKind() == PLabelKind::IntLabel && "unassigned integer");
      Ints.push_back(C->intValue());
    }
    return Regex::makeOperator(K, std::move(Rs), Ints);
  }
  default:
    assert(false && "node is not concrete");
    return nullptr;
  }
}

std::string nodeStr(const PNodePtr &N) {
  switch (N->getKind()) {
  case PLabelKind::SketchLabel:
    return "[" + printSketch(N->sketch()) + "@" +
           std::to_string(N->sketchDepth()) +
           (N->sketchWithClasses() ? "+C" : "") + "]";
  case PLabelKind::LeafLabel:
    return printRegex(N->leaf());
  case PLabelKind::SymIntLabel:
    return "k" + std::to_string(N->symInt());
  case PLabelKind::IntLabel:
    return std::to_string(N->intValue());
  case PLabelKind::OpLabel: {
    std::string Out = kindName(N->op());
    Out.push_back('(');
    for (size_t I = 0; I < N->children().size(); ++I) {
      if (I)
        Out.push_back(',');
      Out += nodeStr(N->children()[I]);
    }
    Out.push_back(')');
    return Out;
  }
  }
  return "?";
}

} // namespace

bool PartialRegex::isConcrete() const {
  return Root && !anyNode(Root, PLabelKind::SketchLabel) &&
         !anyNode(Root, PLabelKind::SymIntLabel);
}

bool PartialRegex::isSymbolic() const {
  return Root && !anyNode(Root, PLabelKind::SketchLabel) &&
         anyNode(Root, PLabelKind::SymIntLabel);
}

bool PartialRegex::hasOpenNode() const {
  return Root && anyNode(Root, PLabelKind::SketchLabel);
}

std::optional<NodePath> PartialRegex::selectOpenNode() const {
  NodePath Path;
  const PNode *Found = nullptr;
  if (Root && findFirst(Root, PLabelKind::SketchLabel, Path, Found))
    return Path;
  return std::nullopt;
}

std::optional<NodePath> PartialRegex::selectSymInt(uint32_t &SymIdOut) const {
  NodePath Path;
  const PNode *Found = nullptr;
  if (Root && findFirst(Root, PLabelKind::SymIntLabel, Path, Found)) {
    SymIdOut = Found->symInt();
    return Path;
  }
  return std::nullopt;
}

const PNode *PartialRegex::nodeAt(const NodePath &Path) const {
  const PNode *N = Root.get();
  for (unsigned I : Path) {
    assert(N && I < N->children().size() && "bad node path");
    N = N->children()[I].get();
  }
  return N;
}

PartialRegex PartialRegex::replaceAt(const NodePath &Path, PNodePtr NewNode,
                                     uint32_t NewNumSymInts) const {
  return PartialRegex(rebuild(Root, Path, 0, NewNode), NewNumSymInts);
}

PartialRegex PartialRegex::assignSymInt(uint32_t SymId, int Value) const {
  bool Changed = false;
  PNodePtr NewRoot = substSymInt(Root, SymId, Value, Changed);
  assert(Changed && "symbolic integer not present");
  return PartialRegex(std::move(NewRoot), NumSymInts);
}

RegexPtr PartialRegex::toRegex() const {
  assert(isConcrete() && "partial regex is not concrete");
  return nodeToRegex(Root);
}

unsigned PartialRegex::size() const { return Root ? countNodes(Root) : 0; }

unsigned PartialRegex::numOpenNodes() const {
  return Root ? countKind(Root, PLabelKind::SketchLabel) : 0;
}

std::string PartialRegex::str() const {
  return Root ? nodeStr(Root) : "<empty>";
}
