//===- smt/Formula.cpp ----------------------------------------------------===//

#include "smt/Formula.h"

#include "support/Mutex.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace regel;
using namespace regel::smt;

namespace {

/// Interning key; same discipline as the term interner — children by
/// pointer (interned first, so pointer equality is structural equality),
/// hash precomputed so expired entries' dangling child pointers are only
/// ever compared by address.
struct FormulaKey {
  FormulaKind Kind;
  CmpOp Op;
  const Term *L;
  const Term *R;
  std::vector<const Formula *> Parts;
  uint64_t H;
};

struct FormulaKeyHash {
  size_t operator()(const FormulaKey &K) const {
    return static_cast<size_t>(K.H);
  }
};

struct FormulaKeyEq {
  bool operator()(const FormulaKey &A, const FormulaKey &B) const {
    return A.Kind == B.Kind && A.Op == B.Op && A.L == B.L && A.R == B.R &&
           A.Parts == B.Parts;
  }
};

struct FormulaInternShard {
  Mutex M;
  std::unordered_map<FormulaKey, std::weak_ptr<const Formula>,
                     FormulaKeyHash, FormulaKeyEq>
      Map REGEL_GUARDED_BY(M);
  size_t SweepAt REGEL_GUARDED_BY(M) = 64;
};

constexpr unsigned NumInternShards = 8;

FormulaInternShard &formulaShard(uint64_t Hash) {
  static FormulaInternShard Shards[NumInternShards];
  return Shards[mix64(Hash) % NumInternShards];
}

uint64_t formulaHash(FormulaKind Kind, CmpOp Op, const Term *L,
                     const Term *R,
                     const std::vector<const Formula *> &Parts) {
  uint64_t H = mix64(static_cast<uint64_t>(Kind) + 0x2545f4914f6cdd1dull);
  switch (Kind) {
  case FormulaKind::True:
  case FormulaKind::False:
    return H;
  case FormulaKind::Atom:
    H = hashCombine(H, static_cast<uint64_t>(Op));
    return hashCombine(hashCombine(H, L->hash()), R->hash());
  case FormulaKind::And:
  case FormulaKind::Or:
    for (const Formula *P : Parts)
      H = hashCombine(H, P->hash());
    return H;
  }
  return H;
}

std::vector<const Formula *> rawParts(const std::vector<FormulaPtr> &Parts) {
  std::vector<const Formula *> Raw;
  Raw.reserve(Parts.size());
  for (const FormulaPtr &P : Parts)
    Raw.push_back(P.get());
  return Raw;
}

/// Canonicalizes a flattened part list in place: deterministic structural
/// sort, then de-duplication (interning makes duplicate parts
/// pointer-equal and compare()==0).
void canonicalizeParts(std::vector<FormulaPtr> &Parts) {
  std::sort(Parts.begin(), Parts.end(),
            [](const FormulaPtr &A, const FormulaPtr &B) {
              return Formula::compare(*A, *B) < 0;
            });
  Parts.erase(std::unique(Parts.begin(), Parts.end()), Parts.end());
}

} // namespace

FormulaPtr Formula::intern(FormulaKind Kind, CmpOp Op, TermPtr Lhs,
                           TermPtr Rhs, std::vector<FormulaPtr> Parts) {
  FormulaKey K{Kind, Op, Lhs.get(), Rhs.get(), rawParts(Parts), 0};
  K.H = formulaHash(Kind, Op, K.L, K.R, K.Parts);
  FormulaInternShard &S = formulaShard(K.H);
  MutexLock Guard(S.M);
  auto It = S.Map.find(K);
  if (It != S.Map.end())
    if (FormulaPtr P = It->second.lock())
      return P;
  FormulaPtr P(new Formula(Kind, Op, std::move(Lhs), std::move(Rhs),
                           std::move(Parts), K.H));
  S.Map[std::move(K)] = P;
  if (S.Map.size() >= S.SweepAt) {
    for (auto I = S.Map.begin(); I != S.Map.end();)
      I = I->second.expired() ? S.Map.erase(I) : std::next(I);
    S.SweepAt = std::max<size_t>(64, S.Map.size() * 2);
  }
  return P;
}

int Formula::compare(const Formula &A, const Formula &B) {
  if (&A == &B)
    return 0;
  if (A.Kind != B.Kind)
    return static_cast<int>(A.Kind) < static_cast<int>(B.Kind) ? -1 : 1;
  switch (A.Kind) {
  case FormulaKind::True:
  case FormulaKind::False:
    return 0;
  case FormulaKind::Atom: {
    if (A.Op != B.Op)
      return static_cast<int>(A.Op) < static_cast<int>(B.Op) ? -1 : 1;
    if (int C = Term::compare(*A.Lhs, *B.Lhs))
      return C;
    return Term::compare(*A.Rhs, *B.Rhs);
  }
  case FormulaKind::And:
  case FormulaKind::Or: {
    const size_t N = std::min(A.Parts.size(), B.Parts.size());
    for (size_t I = 0; I < N; ++I)
      if (int C = compare(*A.Parts[I], *B.Parts[I]))
        return C;
    return A.Parts.size() < B.Parts.size()
               ? -1
               : A.Parts.size() > B.Parts.size() ? 1 : 0;
  }
  }
  return 0;
}

FormulaPtr Formula::truth() {
  return intern(FormulaKind::True, CmpOp::Le, nullptr, nullptr, {});
}

FormulaPtr Formula::falsity() {
  return intern(FormulaKind::False, CmpOp::Le, nullptr, nullptr, {});
}

FormulaPtr Formula::atom(CmpOp Op, TermPtr Lhs, TermPtr Rhs) {
  assert(Lhs && Rhs && "null atom operand");
  return intern(FormulaKind::Atom, Op, std::move(Lhs), std::move(Rhs), {});
}

FormulaPtr Formula::conj(std::vector<FormulaPtr> Parts) {
  std::vector<FormulaPtr> Kept;
  for (FormulaPtr &P : Parts) {
    assert(P && "null conjunct");
    if (P->Kind == FormulaKind::False)
      return falsity();
    if (P->Kind == FormulaKind::True)
      continue;
    if (P->Kind == FormulaKind::And) {
      for (const FormulaPtr &Q : P->Parts)
        Kept.push_back(Q);
      continue;
    }
    Kept.push_back(std::move(P));
  }
  canonicalizeParts(Kept);
  if (Kept.empty())
    return truth();
  if (Kept.size() == 1)
    return Kept[0];
  return intern(FormulaKind::And, CmpOp::Le, nullptr, nullptr,
                std::move(Kept));
}

FormulaPtr Formula::disj(std::vector<FormulaPtr> Parts) {
  std::vector<FormulaPtr> Kept;
  for (FormulaPtr &P : Parts) {
    assert(P && "null disjunct");
    if (P->Kind == FormulaKind::True)
      return truth();
    if (P->Kind == FormulaKind::False)
      continue;
    if (P->Kind == FormulaKind::Or) {
      for (const FormulaPtr &Q : P->Parts)
        Kept.push_back(Q);
      continue;
    }
    Kept.push_back(std::move(P));
  }
  canonicalizeParts(Kept);
  if (Kept.empty())
    return falsity();
  if (Kept.size() == 1)
    return Kept[0];
  return intern(FormulaKind::Or, CmpOp::Le, nullptr, nullptr,
                std::move(Kept));
}

namespace {

Tri evalCmp(CmpOp Op, const Interval &A, const Interval &B) {
  switch (Op) {
  case CmpOp::Le:
    if (A.Hi <= B.Lo)
      return Tri::True;
    if (A.Lo > B.Hi)
      return Tri::False;
    return Tri::Unknown;
  case CmpOp::Ge:
    return evalCmp(CmpOp::Le, B, A);
  case CmpOp::Eq:
    if (A.isPoint() && B.isPoint())
      return A.Lo == B.Lo ? Tri::True : Tri::False;
    if (A.Hi < B.Lo || B.Hi < A.Lo)
      return Tri::False;
    return Tri::Unknown;
  case CmpOp::Ne:
    if (A.isPoint() && B.isPoint())
      return A.Lo != B.Lo ? Tri::True : Tri::False;
    if (A.Hi < B.Lo || B.Hi < A.Lo)
      return Tri::True;
    return Tri::Unknown;
  }
  assert(false && "unknown comparison");
  return Tri::Unknown;
}

} // namespace

Tri Formula::eval(const std::vector<Interval> &Domains) const {
  switch (Kind) {
  case FormulaKind::True:
    return Tri::True;
  case FormulaKind::False:
    return Tri::False;
  case FormulaKind::Atom:
    return evalCmp(Op, Lhs->eval(Domains), Rhs->eval(Domains));
  case FormulaKind::And: {
    bool AnyUnknown = false;
    for (const FormulaPtr &P : Parts) {
      Tri T = P->eval(Domains);
      if (T == Tri::False)
        return Tri::False;
      if (T == Tri::Unknown)
        AnyUnknown = true;
    }
    return AnyUnknown ? Tri::Unknown : Tri::True;
  }
  case FormulaKind::Or: {
    bool AnyUnknown = false;
    for (const FormulaPtr &P : Parts) {
      Tri T = P->eval(Domains);
      if (T == Tri::True)
        return Tri::True;
      if (T == Tri::Unknown)
        AnyUnknown = true;
    }
    return AnyUnknown ? Tri::Unknown : Tri::False;
  }
  }
  assert(false && "unknown formula kind");
  return Tri::Unknown;
}

bool Formula::evalPoint(const std::vector<int64_t> &Assignment) const {
  switch (Kind) {
  case FormulaKind::True:
    return true;
  case FormulaKind::False:
    return false;
  case FormulaKind::Atom: {
    int64_t A = Lhs->evalPoint(Assignment);
    int64_t B = Rhs->evalPoint(Assignment);
    switch (Op) {
    case CmpOp::Le:
      return A <= B;
    case CmpOp::Ge:
      return A >= B;
    case CmpOp::Eq:
      return A == B;
    case CmpOp::Ne:
      return A != B;
    }
    return false;
  }
  case FormulaKind::And:
    for (const FormulaPtr &P : Parts)
      if (!P->evalPoint(Assignment))
        return false;
    return true;
  case FormulaKind::Or:
    for (const FormulaPtr &P : Parts)
      if (P->evalPoint(Assignment))
        return true;
    return false;
  }
  assert(false && "unknown formula kind");
  return false;
}

std::string Formula::str() const {
  switch (Kind) {
  case FormulaKind::True:
    return "true";
  case FormulaKind::False:
    return "false";
  case FormulaKind::Atom: {
    const char *OpStr = "?";
    switch (Op) {
    case CmpOp::Le:
      OpStr = "<=";
      break;
    case CmpOp::Ge:
      OpStr = ">=";
      break;
    case CmpOp::Eq:
      OpStr = "=";
      break;
    case CmpOp::Ne:
      OpStr = "!=";
      break;
    }
    return Lhs->str() + " " + OpStr + " " + Rhs->str();
  }
  case FormulaKind::And:
  case FormulaKind::Or: {
    std::string Sep = Kind == FormulaKind::And ? " & " : " | ";
    std::string Out = "(";
    for (size_t I = 0; I < Parts.size(); ++I) {
      if (I)
        Out += Sep;
      Out += Parts[I]->str();
    }
    return Out + ")";
  }
  }
  return "?";
}
