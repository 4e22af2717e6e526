//===- smt/Formula.h - Quantifier-free formulas over terms ------*- C++ -*-===//
//
// Part of the Regel reproduction. Boolean combinations of comparison atoms
// over smt terms, with three-valued interval evaluation (the pruning
// oracle of smt::satisfiable and of constant inference). Substitutes for
// the formula layer of Z3.
//
// Like terms, formulas are hash-consed into canonical form: conj/disj
// flatten nested conjunctions/disjunctions, drop units, sort the parts
// into the deterministic structural order of Formula::compare, and
// de-duplicate — so the same SET of constraints builds the same pointer
// regardless of insertion order. Structural equality is pointer equality
// and hash() is O(1), which is what lets the engine key a cross-run
// verdict cache on formulas.
// Atoms are interned as constructed: Le/Ge keep their operand direction
// (every atom in the system is built by one encoder, so mirrored
// spellings of one comparison do not occur in practice).
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SMT_FORMULA_H
#define REGEL_SMT_FORMULA_H

#include "smt/Term.h"

#include <memory>
#include <string>
#include <vector>

namespace regel::smt {

enum class CmpOp : uint8_t { Le, Ge, Eq, Ne };

enum class FormulaKind : uint8_t { True, False, Atom, And, Or };

/// Three-valued logic result of interval evaluation.
enum class Tri : uint8_t { False, True, Unknown };

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// An immutable quantifier-free formula.
class Formula {
public:
  FormulaKind getKind() const { return Kind; }
  const std::vector<FormulaPtr> &getParts() const { return Parts; }

  static FormulaPtr truth();
  static FormulaPtr falsity();
  static FormulaPtr atom(CmpOp Op, TermPtr Lhs, TermPtr Rhs);
  static FormulaPtr conj(std::vector<FormulaPtr> Parts);
  static FormulaPtr disj(std::vector<FormulaPtr> Parts);

  /// Convenience comparisons.
  static FormulaPtr le(TermPtr A, TermPtr B) {
    return atom(CmpOp::Le, std::move(A), std::move(B));
  }
  static FormulaPtr ge(TermPtr A, TermPtr B) {
    return atom(CmpOp::Ge, std::move(A), std::move(B));
  }
  static FormulaPtr eq(TermPtr A, TermPtr B) {
    return atom(CmpOp::Eq, std::move(A), std::move(B));
  }
  static FormulaPtr ne(TermPtr A, TermPtr B) {
    return atom(CmpOp::Ne, std::move(A), std::move(B));
  }

  /// Structural hash, stored at interning time (O(1), cache-key grade:
  /// interning makes structurally equal formulas pointer-equal).
  size_t hash() const { return static_cast<size_t>(Hash); }

  /// Deterministic structural total order (by kind, then contents; And/Or
  /// parts lexicographically). Returns 0 iff &A == &B. The canonical sort
  /// order of conj/disj parts.
  static int compare(const Formula &A, const Formula &B);

  /// Three-valued evaluation under interval domains: returns True (resp.
  /// False) only when every (resp. no) completion satisfies the formula.
  Tri eval(const std::vector<Interval> &Domains) const;

  /// Exact evaluation under a full assignment.
  bool evalPoint(const std::vector<int64_t> &Assignment) const;

  /// Printable form for diagnostics and tests.
  std::string str() const;

private:
  Formula(FormulaKind Kind, CmpOp Op, TermPtr Lhs, TermPtr Rhs,
          std::vector<FormulaPtr> Parts, uint64_t Hash)
      : Kind(Kind), Op(Op), Hash(Hash), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)), Parts(std::move(Parts)) {}

  /// Finds or creates the interned node for the (already canonicalized)
  /// shape.
  static FormulaPtr intern(FormulaKind Kind, CmpOp Op, TermPtr Lhs,
                           TermPtr Rhs, std::vector<FormulaPtr> Parts);

  FormulaKind Kind;
  CmpOp Op = CmpOp::Le;
  uint64_t Hash = 0;
  TermPtr Lhs, Rhs;
  std::vector<FormulaPtr> Parts;
};

} // namespace regel::smt

#endif // REGEL_SMT_FORMULA_H
