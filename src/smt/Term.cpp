//===- smt/Term.cpp -------------------------------------------------------===//

#include "smt/Term.h"

#include "support/Mutex.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace regel;
using namespace regel::smt;

namespace {

/// Interning key. Children are compared by pointer: they are interned
/// first, so structural equality below a node IS pointer equality. The
/// structural hash is precomputed and stored so neither hashing nor
/// equality ever dereferences L/R — an expired entry's key may point at
/// freed children, which is safe to compare by address and nothing else.
struct TermKey {
  TermKind Kind;
  int64_t Value;
  VarId Var;
  const Term *L;
  const Term *R;
  uint64_t H;
};

struct TermKeyHash {
  size_t operator()(const TermKey &K) const { return static_cast<size_t>(K.H); }
};

struct TermKeyEq {
  bool operator()(const TermKey &A, const TermKey &B) const {
    return A.Kind == B.Kind && A.Value == B.Value && A.Var == B.Var &&
           A.L == B.L && A.R == B.R;
  }
};

/// One shard of the process-global hash-consing table. Entries are weak
/// so interning never extends a term's lifetime; expired slots are swept
/// opportunistically once a shard doubles since its last sweep (terms
/// never unregister themselves — their destructor must stay
/// interner-free so static destruction order cannot bite).
struct InternShard {
  Mutex M;
  std::unordered_map<TermKey, std::weak_ptr<const Term>, TermKeyHash,
                     TermKeyEq>
      Map REGEL_GUARDED_BY(M);
  size_t SweepAt REGEL_GUARDED_BY(M) = 64;
};

constexpr unsigned NumInternShards = 8;

InternShard &termShard(uint64_t Hash) {
  static InternShard Shards[NumInternShards];
  return Shards[mix64(Hash) % NumInternShards];
}

uint64_t termHash(TermKind Kind, int64_t Value, VarId Var, const Term *L,
                  const Term *R) {
  uint64_t H = mix64(static_cast<uint64_t>(Kind) + 0x517cc1b727220a95ull);
  switch (Kind) {
  case TermKind::Const:
    return hashCombine(H, static_cast<uint64_t>(Value));
  case TermKind::Var:
    return hashCombine(H, static_cast<uint64_t>(Var));
  default:
    return hashCombine(hashCombine(H, L->hash()), R->hash());
  }
}

} // namespace

TermPtr Term::intern(TermKind Kind, int64_t Value, VarId Var, TermPtr Lhs,
                     TermPtr Rhs) {
  const uint64_t H = termHash(Kind, Value, Var, Lhs.get(), Rhs.get());
  TermKey K{Kind, Value, Var, Lhs.get(), Rhs.get(), H};
  InternShard &S = termShard(H);
  MutexLock Guard(S.M);
  auto It = S.Map.find(K);
  if (It != S.Map.end())
    if (TermPtr P = It->second.lock())
      return P;
  TermPtr P(new Term(Kind, Value, Var, std::move(Lhs), std::move(Rhs), H));
  S.Map[K] = P;
  if (S.Map.size() >= S.SweepAt) {
    for (auto I = S.Map.begin(); I != S.Map.end();)
      I = I->second.expired() ? S.Map.erase(I) : std::next(I);
    S.SweepAt = std::max<size_t>(64, S.Map.size() * 2);
  }
  return P;
}

int Term::compare(const Term &A, const Term &B) {
  if (&A == &B)
    return 0;
  if (A.Kind != B.Kind)
    return static_cast<int>(A.Kind) < static_cast<int>(B.Kind) ? -1 : 1;
  switch (A.Kind) {
  case TermKind::Const:
    return A.Value < B.Value ? -1 : A.Value > B.Value ? 1 : 0;
  case TermKind::Var:
    return A.Var < B.Var ? -1 : A.Var > B.Var ? 1 : 0;
  default:
    if (int C = compare(*A.Lhs, *B.Lhs))
      return C;
    return compare(*A.Rhs, *B.Rhs);
  }
}

namespace {

/// Canonical operand order for the commutative constructors: smaller
/// term first under Term::compare. Deterministic (structural, not
/// allocation-order), so equal operand multisets intern to one node.
void orderCommutative(TermPtr &A, TermPtr &B) {
  if (Term::compare(*A, *B) > 0)
    std::swap(A, B);
}

} // namespace

int64_t regel::smt::satAdd(int64_t A, int64_t B) {
  assert(A >= 0 && B >= 0 && "extended naturals only");
  if (A == Infinity || B == Infinity)
    return Infinity;
  if (A > Infinity - B)
    return Infinity;
  return A + B;
}

int64_t regel::smt::satMul(int64_t A, int64_t B) {
  assert(A >= 0 && B >= 0 && "extended naturals only");
  if (A == 0 || B == 0)
    return 0;
  if (A == Infinity || B == Infinity)
    return Infinity;
  if (A > Infinity / B)
    return Infinity;
  return A * B;
}

TermPtr Term::constant(int64_t V) {
  assert(V >= 0 && "terms range over extended naturals");
  return intern(TermKind::Const, V, 0, nullptr, nullptr);
}

TermPtr Term::var(VarId V) {
  return intern(TermKind::Var, 0, V, nullptr, nullptr);
}

TermPtr Term::add(TermPtr A, TermPtr B) {
  assert(A && B && "null term");
  // Constant folding keeps encoder output small.
  if (A->getKind() == TermKind::Const && B->getKind() == TermKind::Const)
    return constant(satAdd(A->getValue(), B->getValue()));
  if (A->getKind() == TermKind::Const && A->getValue() == 0)
    return B;
  if (B->getKind() == TermKind::Const && B->getValue() == 0)
    return A;
  orderCommutative(A, B);
  return intern(TermKind::Add, 0, 0, std::move(A), std::move(B));
}

TermPtr Term::mul(TermPtr A, TermPtr B) {
  assert(A && B && "null term");
  if (A->getKind() == TermKind::Const && B->getKind() == TermKind::Const)
    return constant(satMul(A->getValue(), B->getValue()));
  if (A->getKind() == TermKind::Const && A->getValue() == 1)
    return B;
  if (B->getKind() == TermKind::Const && B->getValue() == 1)
    return A;
  if ((A->getKind() == TermKind::Const && A->getValue() == 0) ||
      (B->getKind() == TermKind::Const && B->getValue() == 0))
    return constant(0);
  orderCommutative(A, B);
  return intern(TermKind::Mul, 0, 0, std::move(A), std::move(B));
}

TermPtr Term::min(TermPtr A, TermPtr B) {
  assert(A && B && "null term");
  if (A->getKind() == TermKind::Const && B->getKind() == TermKind::Const)
    return constant(std::min(A->getValue(), B->getValue()));
  if (A->getKind() == TermKind::Const && A->getValue() == Infinity)
    return B;
  if (B->getKind() == TermKind::Const && B->getValue() == Infinity)
    return A;
  orderCommutative(A, B);
  return intern(TermKind::Min, 0, 0, std::move(A), std::move(B));
}

TermPtr Term::max(TermPtr A, TermPtr B) {
  assert(A && B && "null term");
  if (A->getKind() == TermKind::Const && B->getKind() == TermKind::Const)
    return constant(std::max(A->getValue(), B->getValue()));
  if (A->getKind() == TermKind::Const && A->getValue() == 0)
    return B;
  if (B->getKind() == TermKind::Const && B->getValue() == 0)
    return A;
  orderCommutative(A, B);
  return intern(TermKind::Max, 0, 0, std::move(A), std::move(B));
}

Interval Term::eval(const std::vector<Interval> &Domains) const {
  switch (Kind) {
  case TermKind::Const:
    return {Value, Value};
  case TermKind::Var:
    assert(Var < Domains.size() && "undeclared variable");
    return Domains[Var];
  case TermKind::Add: {
    Interval A = Lhs->eval(Domains);
    Interval B = Rhs->eval(Domains);
    return {satAdd(A.Lo, B.Lo), satAdd(A.Hi, B.Hi)};
  }
  case TermKind::Mul: {
    Interval A = Lhs->eval(Domains);
    Interval B = Rhs->eval(Domains);
    return {satMul(A.Lo, B.Lo), satMul(A.Hi, B.Hi)};
  }
  case TermKind::Min: {
    Interval A = Lhs->eval(Domains);
    Interval B = Rhs->eval(Domains);
    return {std::min(A.Lo, B.Lo), std::min(A.Hi, B.Hi)};
  }
  case TermKind::Max: {
    Interval A = Lhs->eval(Domains);
    Interval B = Rhs->eval(Domains);
    return {std::max(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
  }
  }
  assert(false && "unknown term kind");
  return {};
}

int64_t Term::evalPoint(const std::vector<int64_t> &Assignment) const {
  switch (Kind) {
  case TermKind::Const:
    return Value;
  case TermKind::Var:
    assert(Var < Assignment.size() && "undeclared variable");
    return Assignment[Var];
  case TermKind::Add:
    return satAdd(Lhs->evalPoint(Assignment), Rhs->evalPoint(Assignment));
  case TermKind::Mul:
    return satMul(Lhs->evalPoint(Assignment), Rhs->evalPoint(Assignment));
  case TermKind::Min:
    return std::min(Lhs->evalPoint(Assignment), Rhs->evalPoint(Assignment));
  case TermKind::Max:
    return std::max(Lhs->evalPoint(Assignment), Rhs->evalPoint(Assignment));
  }
  assert(false && "unknown term kind");
  return 0;
}

std::string Term::str() const {
  switch (Kind) {
  case TermKind::Const:
    return Value == Infinity ? "inf" : std::to_string(Value);
  case TermKind::Var:
    return "k" + std::to_string(Var);
  case TermKind::Add:
    return "(" + Lhs->str() + " + " + Rhs->str() + ")";
  case TermKind::Mul:
    return "(" + Lhs->str() + " * " + Rhs->str() + ")";
  case TermKind::Min:
    return "min(" + Lhs->str() + ", " + Rhs->str() + ")";
  case TermKind::Max:
    return "max(" + Lhs->str() + ", " + Rhs->str() + ")";
  }
  return "?";
}
