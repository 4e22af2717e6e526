//===- synth/PartialRegex.h - Partial regexes (Def. 4.1) --------*- C++ -*-===//
//
// Part of the Regel reproduction. A partial regex is an AST whose nodes are
// labelled with (1) a DSL construct, (2) a symbolic integer, or (3) an
// h-sketch (Def. 4.1). Sketch labels additionally carry the remaining hole
// depth budget and whether the component set was widened with all character
// classes (the l' label of Fig. 10, rule 2).
//
// Trees are persistent (shared immutable nodes); expansion rebuilds only
// the spine from the root to the rewritten node.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SYNTH_PARTIALREGEX_H
#define REGEL_SYNTH_PARTIALREGEX_H

#include "sketch/Sketch.h"

#include <optional>
#include <string>
#include <vector>

namespace regel {

/// Positive/negative example specification for one synthesis task.
struct Examples {
  std::vector<std::string> Pos;
  std::vector<std::string> Neg;

  /// Length of the longest example string (used to bound automata work).
  size_t maxLength() const;
};

enum class PLabelKind : uint8_t {
  SketchLabel, ///< Open node to expand (h-sketch + depth budget).
  OpLabel,     ///< DSL operator; children are regex args then int slots.
  LeafLabel,   ///< Fully concrete sub-regex.
  SymIntLabel, ///< Unassigned symbolic integer kappa.
  IntLabel,    ///< Assigned integer constant.
};

class PNode;
using PNodePtr = std::shared_ptr<const PNode>;

/// One node of a partial regex.
class PNode {
public:
  PLabelKind getKind() const { return Kind; }

  const SketchPtr &sketch() const {
    assert(Kind == PLabelKind::SketchLabel);
    return Sk;
  }
  unsigned sketchDepth() const {
    assert(Kind == PLabelKind::SketchLabel);
    return Depth;
  }
  /// True when this open node's hole components were widened with every
  /// character class (Fig. 10 rule 2's l' label).
  bool sketchWithClasses() const {
    assert(Kind == PLabelKind::SketchLabel);
    return WithClasses;
  }

  RegexKind op() const {
    assert(Kind == PLabelKind::OpLabel);
    return Op;
  }
  const RegexPtr &leaf() const {
    assert(Kind == PLabelKind::LeafLabel);
    return Leaf;
  }
  uint32_t symInt() const {
    assert(Kind == PLabelKind::SymIntLabel);
    return Sym;
  }
  int intValue() const {
    assert(Kind == PLabelKind::IntLabel);
    return Value;
  }

  const std::vector<PNodePtr> &children() const { return Children; }

  /// Structural hash (cached at construction).
  size_t hash() const { return Hash; }

  /// Deep structural equality: kind, every label field, and the children
  /// in order.
  bool equals(const PNode &Other) const;

  static PNodePtr sketchNode(SketchPtr S, unsigned Depth, bool WithClasses);
  static PNodePtr opNode(RegexKind Op, std::vector<PNodePtr> Children);
  static PNodePtr leafNode(RegexPtr R);
  static PNodePtr symIntNode(uint32_t Id);
  static PNodePtr intNode(int Value);

private:
  PNode(PLabelKind Kind, SketchPtr Sk, unsigned Depth, bool WithClasses,
        RegexKind Op, RegexPtr Leaf, uint32_t Sym, int Value,
        std::vector<PNodePtr> Children)
      : Kind(Kind), Sk(std::move(Sk)), Depth(Depth), WithClasses(WithClasses),
        Op(Op), Leaf(std::move(Leaf)), Sym(Sym), Value(Value),
        Children(std::move(Children)) {
    size_t H = static_cast<size_t>(Kind) * 0x9e3779b97f4a7c15ull;
    if (this->Sk)
      H ^= this->Sk->hash() + (static_cast<size_t>(Depth) << 3) +
           (WithClasses ? 0x5bd1e995u : 0u);
    H ^= static_cast<size_t>(Op) * 0x85ebca6b;
    if (this->Leaf)
      H ^= this->Leaf->hash() * 0xc2b2ae35;
    H ^= (static_cast<size_t>(Sym) << 17) ^
         (static_cast<size_t>(static_cast<unsigned>(Value)) << 5);
    for (const PNodePtr &C : this->Children)
      H ^= C->hash() + 0x9e3779b9 + (H << 6) + (H >> 2);
    Hash = H;
  }

  PLabelKind Kind;
  SketchPtr Sk;
  unsigned Depth = 0;
  bool WithClasses = false;
  RegexKind Op = RegexKind::Concat;
  RegexPtr Leaf;
  uint32_t Sym = 0;
  int Value = 0;
  std::vector<PNodePtr> Children;
  size_t Hash = 0;
};

/// Convenience deep-equality on shared pointers (null-safe).
bool pnodeEquals(const PNodePtr &A, const PNodePtr &B);

/// Hash functor for PNodePtr keyed on structure, for use in hash maps.
struct PNodePtrHash {
  size_t operator()(const PNodePtr &N) const { return N ? N->hash() : 0; }
};

/// Equality functor matching PNodePtrHash.
struct PNodePtrEq {
  bool operator()(const PNodePtr &A, const PNodePtr &B) const {
    return pnodeEquals(A, B);
  }
};

/// Path from the root: sequence of child indices.
using NodePath = std::vector<unsigned>;

/// A partial regex (persistent tree + symbolic-integer bookkeeping).
class PartialRegex {
public:
  PartialRegex() = default;
  explicit PartialRegex(PNodePtr Root, uint32_t NumSymInts = 0)
      : Root(std::move(Root)), NumSymInts(NumSymInts) {}

  /// Builds the initial worklist element (v0 labelled with the sketch).
  static PartialRegex initial(SketchPtr S, unsigned DepthBudget);

  const PNodePtr &root() const { return Root; }
  uint32_t numSymInts() const { return NumSymInts; }

  bool isConcrete() const;  ///< All labels are DSL constructs/constants.
  bool isSymbolic() const;  ///< No sketch labels but >=1 symbolic integer.
  bool hasOpenNode() const; ///< At least one sketch label.

  /// Leftmost open (sketch-labelled) node, if any.
  std::optional<NodePath> selectOpenNode() const;

  /// Leftmost unassigned symbolic-integer node, if any; also reports its
  /// kappa id via \p SymIdOut.
  std::optional<NodePath> selectSymInt(uint32_t &SymIdOut) const;

  const PNode *nodeAt(const NodePath &Path) const;

  /// Functional update: new tree with \p Path's subtree replaced.
  PartialRegex replaceAt(const NodePath &Path, PNodePtr NewNode,
                         uint32_t NewNumSymInts) const;

  /// Substitutes integer \p Value for symbolic integer \p SymId everywhere.
  PartialRegex assignSymInt(uint32_t SymId, int Value) const;

  /// Converts to a concrete regex; requires isConcrete().
  RegexPtr toRegex() const;

  /// Number of nodes (search-cost metric).
  unsigned size() const;

  /// Number of open (sketch) nodes.
  unsigned numOpenNodes() const;

  /// Diagnostic rendering.
  std::string str() const;

private:
  PNodePtr Root;
  uint32_t NumSymInts = 0;
};

} // namespace regel

#endif // REGEL_SYNTH_PARTIALREGEX_H
