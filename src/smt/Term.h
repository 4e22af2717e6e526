//===- smt/Term.h - Arithmetic terms over bounded integers ------*- C++ -*-===//
//
// Part of the Regel reproduction. Non-negative integer terms with addition
// and multiplication (the non-linear `x >= x1*k` constraints of Fig. 13
// need products of a variable with a term). Infinity is a first-class
// constant because the DSL's unbounded repetitions yield upper bounds of
// "no bound". This module substitutes for the term layer of Z3.
//
// Terms are hash-consed: the factory functions intern every node in a
// process-global table (after constant folding and after sorting the
// operands of the commutative constructors into a deterministic canonical
// order), so structurally equal terms are pointer-equal. That is what
// makes formulas usable as cache keys — equality is a pointer compare and
// hash() is a stored field, both O(1).
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SMT_TERM_H
#define REGEL_SMT_TERM_H

#include "support/Hash.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace regel::smt {

/// Variable identifier (dense index issued by the encoder).
using VarId = uint32_t;

/// Saturating extended naturals: values in [0, Infinity].
constexpr int64_t Infinity = INT64_MAX;

/// Saturating addition on extended naturals.
int64_t satAdd(int64_t A, int64_t B);

/// Saturating multiplication on extended naturals.
int64_t satMul(int64_t A, int64_t B);

/// An inclusive interval over extended naturals.
struct Interval {
  int64_t Lo = 0;
  int64_t Hi = Infinity;

  bool isPoint() const { return Lo == Hi; }

  friend bool operator==(const Interval &A, const Interval &B) {
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
  friend bool operator!=(const Interval &A, const Interval &B) {
    return !(A == B);
  }
};

/// Order-sensitive hash combination (applied after canonical operand
/// ordering, so equal operand multisets still hash equally).
inline uint64_t hashCombine(uint64_t Seed, uint64_t V) {
  return mix64(Seed ^ (V + 0x9e3779b97f4a7c15ull + (Seed << 6) +
                         (Seed >> 2)));
}

enum class TermKind : uint8_t { Const, Var, Add, Mul, Min, Max };

class Term;
using TermPtr = std::shared_ptr<const Term>;

/// An immutable arithmetic term.
class Term {
public:
  TermKind getKind() const { return Kind; }

  int64_t getValue() const { return Value; } ///< Const only.

  static TermPtr constant(int64_t V);
  static TermPtr infinity() { return constant(Infinity); }
  static TermPtr var(VarId V);
  static TermPtr add(TermPtr A, TermPtr B);
  static TermPtr mul(TermPtr A, TermPtr B);
  static TermPtr min(TermPtr A, TermPtr B);
  static TermPtr max(TermPtr A, TermPtr B);

  /// Structural hash, stored at interning time. Combined with interning
  /// (structural equality == pointer equality) this is all a hash map
  /// keyed on terms needs.
  size_t hash() const { return static_cast<size_t>(Hash); }

  /// Deterministic structural total order — constants before variables
  /// before composites, then by content — used to canonicalize the
  /// operand order of the commutative constructors. Returns <0, 0, >0;
  /// 0 iff &A == &B (interning makes structural equality pointer
  /// equality).
  static int compare(const Term &A, const Term &B);

  /// Interval evaluation under per-variable domains. All variables are
  /// non-negative, so +/* are monotone and interval arithmetic is exact on
  /// the endpoints.
  Interval eval(const std::vector<Interval> &Domains) const;

  /// Exact evaluation under a full assignment.
  int64_t evalPoint(const std::vector<int64_t> &Assignment) const;

  /// Printable form, e.g. "(k0 + 2*k1)".
  std::string str() const;

private:
  Term(TermKind Kind, int64_t Value, VarId Var, TermPtr Lhs, TermPtr Rhs,
       uint64_t Hash)
      : Kind(Kind), Value(Value), Var(Var), Hash(Hash), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)) {}

  /// Finds or creates the interned node for the (already folded and
  /// canonically ordered) shape.
  static TermPtr intern(TermKind Kind, int64_t Value, VarId Var, TermPtr Lhs,
                        TermPtr Rhs);

  TermKind Kind;
  int64_t Value;
  VarId Var;
  uint64_t Hash;
  TermPtr Lhs, Rhs;
};

} // namespace regel::smt

#endif // REGEL_SMT_TERM_H
