//===- regex/Matcher.cpp --------------------------------------------------===//

#include "regex/Matcher.h"

#include <algorithm>
#include <utility>

using namespace regel;

uint32_t DirectMatcher::flatten(const Regex &R) {
  Op O;
  O.Kind = R.getKind();
  for (unsigned I = 0; I < R.getNumChildren(); ++I)
    O.C[I] = flatten(*R.getChild(I));
  O.K1 = isRepeatFamily(O.Kind) ? R.getK1() : 0;
  O.K2 = O.Kind == RegexKind::RepeatRange ? R.getK2() : O.K1;
  if (O.Kind == RegexKind::CharClassLeaf)
    for (const CharRange &CR : R.getCharClass().ranges())
      for (unsigned C = CR.Lo; C <= CR.Hi; ++C)
        O.Chars[C / 64] |= 1ull << (C % 64);
  Ops.push_back(O);
  return static_cast<uint32_t>(Ops.size() - 1);
}

bool DirectMatcher::matches(std::string_view Input) {
  return Input.size() < 64 ? eval<1>(Input) : eval<0>(Input);
}

template <unsigned FixedWords> bool DirectMatcher::eval(std::string_view S) {
  const uint32_t N = static_cast<uint32_t>(S.size());
  const uint32_t W = FixedWords ? FixedWords : N / 64 + 1; // words per row
  const size_t Words = static_cast<size_t>(N + 1) * W; // words per relation
  if (Arena.size() < (Ops.size() + 2) * Words)
    Arena.resize((Ops.size() + 2) * Words);
  uint64_t *const Base = Arena.data();
  auto Row = [&](auto *Rel, uint32_t I) { return Rel + size_t(I) * W; };
  auto Set = [](uint64_t *R, uint32_t J) { R[J / 64] |= 1ull << (J % 64); };
  auto OrRow = [&](uint64_t *O, const uint64_t *R) {
    for (uint32_t K = 0; K < W; ++K)
      O[K] |= R[K];
  };
  // Calls F(j) for every bit j of row R.
  auto ForBits = [&](const uint64_t *R, auto F) {
    for (uint32_t K = 0; K < W; ++K)
      for (uint64_t X = R[K]; X; X &= X - 1)
        F(K * 64 + static_cast<uint32_t>(__builtin_ctzll(X)));
  };
  // R := the positions [Lo, N]; empty when Lo > N.
  auto FillFrom = [&](uint64_t *R, uint32_t Lo) {
    for (uint32_t K = 0; K < W; ++K) {
      uint32_t First = std::max(Lo, K * 64), Last = std::min(N, K * 64 + 63);
      R[K] = First > Last ? 0
                          : (~uint64_t(0) << (First - K * 64)) &
                                (~uint64_t(0) >> (K * 64 + 63 - Last));
    }
  };
  auto LowBit = [&](const uint64_t *R) -> uint32_t {
    for (uint32_t K = 0; K < W; ++K)
      if (R[K])
        return K * 64 + static_cast<uint32_t>(__builtin_ctzll(R[K]));
    return UINT32_MAX;
  };
  auto Identity = [&](uint64_t *Out) {
    std::fill_n(Out, Words, 0);
    for (uint32_t I = 0; I <= N; ++I)
      Set(Row(Out, I), I);
  };
  // Out := A then B: Out[i] is the OR of B[j] over the bits j of A[i].
  auto Compose = [&](uint64_t *Out, const uint64_t *A, const uint64_t *B) {
    std::fill_n(Out, Words, 0);
    for (uint32_t I = 0; I <= N; ++I) {
      uint64_t *O = Row(Out, I);
      ForBits(Row(A, I), [&](uint32_t J) { OrRow(O, Row(B, J)); });
    }
  };
  // Out := A*, rows N down to 0. The first copy must be nonempty, so a row
  // only pulls in rows to its right, which are final (j == i adds nothing).
  auto Star = [&](uint64_t *Out, const uint64_t *A) {
    for (uint32_t I = N + 1; I-- > 0;) {
      uint64_t *O = Row(Out, I);
      std::fill_n(O, W, 0);
      Set(O, I);
      ForBits(Row(A, I), [&](uint32_t J) { OrRow(O, Row(Out, J)); });
    }
  };
  // X := X then A, in the two scratch relations. Returns false at the
  // fixpoint, after which every further power equals X.
  uint64_t *X = Base + Ops.size() * Words, *Y = X + Words;
  auto Step = [&](const uint64_t *A) {
    Compose(Y, X, A);
    if (std::equal(Y, Y + Words, X))
      return false;
    std::swap(X, Y);
    return true;
  };

  for (size_t Id = 0; Id < Ops.size(); ++Id) {
    const Op &O = Ops[Id];
    uint64_t *Out = Base + Id * Words;
    const uint64_t *A = Base + O.C[0] * Words, *B = Base + O.C[1] * Words;
    switch (O.Kind) {
    case RegexKind::CharClassLeaf:
      std::fill_n(Out, Words, 0);
      for (uint32_t I = 0; I < N; ++I)
        if (uint8_t C = S[I]; O.Chars[C / 64] >> (C % 64) & 1)
          Set(Row(Out, I), I + 1);
      break;
    case RegexKind::Epsilon:
      Identity(Out);
      break;
    case RegexKind::EmptySet:
      std::fill_n(Out, Words, 0);
      break;
    case RegexKind::StartsWith: // r then any*
      for (uint32_t I = 0; I <= N; ++I)
        FillFrom(Row(Out, I), LowBit(Row(A, I)));
      break;
    case RegexKind::EndsWith: // any* then r: Out[i] is the OR of A[m>=i]
    case RegexKind::Contains: // the same, then any*
      for (uint32_t I = N + 1; I-- > 0;) {
        uint64_t *R = Row(Out, I);
        for (uint32_t K = 0; K < W; ++K)
          R[K] = Row(A, I)[K] | (I < N ? Row(Out, I + 1)[K] : 0);
        if (O.Kind == RegexKind::Contains) // row I-1 needs only the low bit
          FillFrom(R, LowBit(R));
      }
      break;
    case RegexKind::Not:
      for (uint32_t I = 0; I <= N; ++I) {
        FillFrom(Row(Out, I), I);
        for (uint32_t K = 0; K < W; ++K)
          Row(Out, I)[K] &= ~Row(A, I)[K];
      }
      break;
    case RegexKind::Optional:
      std::copy(A, A + Words, Out);
      for (uint32_t I = 0; I <= N; ++I)
        Set(Row(Out, I), I);
      break;
    case RegexKind::KleeneStar:
      Star(Out, A);
      break;
    case RegexKind::Concat:
      Compose(Out, A, B);
      break;
    case RegexKind::Or:
    case RegexKind::And:
      for (size_t K = 0; K < Words; ++K)
        Out[K] = O.Kind == RegexKind::Or ? A[K] | B[K] : A[K] & B[K];
      break;
    case RegexKind::Repeat:        // A^k1
    case RegexKind::RepeatAtLeast: // A* then A^k1
    case RegexKind::RepeatRange:   // A^k1 | ... | A^k2; empty if k2 < k1
      if (O.K2 < O.K1) {
        std::fill_n(Out, Words, 0);
        break;
      }
      if (O.Kind == RegexKind::RepeatAtLeast)
        Star(X, A);
      else
        Identity(X);
      for (int K = 0; K < O.K1 && Step(A); ++K) {
      }
      std::copy(X, X + Words, Out);
      for (int K = O.K1; K < O.K2 && Step(A); ++K)
        for (size_t J = 0; J < Words; ++J)
          Out[J] |= X[J];
      break;
    }
  }
  const uint64_t *Root = Base + (Ops.size() - 1) * Words;
  return Root[N / 64] >> (N % 64) & 1;
}

bool regel::matchesDirect(const RegexPtr &R, std::string_view Input) {
  return R && DirectMatcher(R).matches(Input);
}
