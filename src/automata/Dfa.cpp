//===- automata/Dfa.cpp ---------------------------------------------------===//

#include "automata/Dfa.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <numeric>
#include <unordered_map>

using namespace regel;

uint32_t DfaBuilder::addState(bool IsAccept) {
  Accept.push_back(IsAccept);
  Table.resize(Accept.size() * AlphabetSize, 0);
  return static_cast<uint32_t>(Accept.size() - 1);
}

void DfaBuilder::setTransition(uint32_t From, unsigned CharIdx, uint32_t To) {
  assert(From < Accept.size() && CharIdx < AlphabetSize && To < Accept.size());
  Table[From * AlphabetSize + CharIdx] = To;
}

Dfa DfaBuilder::finish() {
  Dfa D;
  D.Start = Start;
  D.Accept = std::move(Accept);
  D.Table = std::move(Table);
  return D;
}

Dfa Dfa::emptyLanguage() {
  DfaBuilder B;
  uint32_t Dead = B.addState(false);
  for (unsigned C = 0; C < AlphabetSize; ++C)
    B.setTransition(Dead, C, Dead);
  B.setStart(Dead);
  return B.finish();
}

namespace {

/// Full-avalanche mixer (splitmix64 finalizer). Weak xor/add mixing lets
/// correlated signature elements cancel and crowd one bucket; identity is
/// decided by comparing full values, never by the hash.
uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Strong hash of an integer sequence (a bucket key, not an identity).
uint64_t hashSeq(const std::vector<uint32_t> &Seq) {
  uint64_t H = 0xcbf29ce484222325ull;
  uint64_t Pos = 0;
  for (uint32_t V : Seq) {
    H ^= mix64(V + (Pos++) * 0x9e3779b97f4a7c15ull);
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace

Dfa Dfa::determinize(const Nfa &N) {
  // Subset construction. Character-equivalence classes derived from the
  // edge-range boundaries keep the move computation to a handful of
  // representative characters instead of all 95.
  std::vector<unsigned char> Boundaries{MinAlphabetChar};
  for (uint32_t S = 0; S < N.numStates(); ++S)
    for (const NfaEdge &E : N.edgesFrom(S)) {
      Boundaries.push_back(E.Lo);
      if (E.Hi < MaxAlphabetChar)
        Boundaries.push_back(static_cast<unsigned char>(E.Hi + 1));
    }
  std::sort(Boundaries.begin(), Boundaries.end());
  Boundaries.erase(std::unique(Boundaries.begin(), Boundaries.end()),
                   Boundaries.end());

  // Subsets are interned on their full value; the hash only picks the
  // bucket.
  std::unordered_multimap<uint64_t, uint32_t> SubsetIds;
  std::vector<std::vector<uint32_t>> Subsets;
  DfaBuilder B;

  auto internSubset = [&](std::vector<uint32_t> Subset) -> uint32_t {
    uint64_t H = hashSeq(Subset);
    for (auto [It, End] = SubsetIds.equal_range(H); It != End; ++It)
      if (Subsets[It->second] == Subset)
        return It->second;
    bool IsAccept = false;
    for (uint32_t S : Subset)
      if (N.isAccept(S)) {
        IsAccept = true;
        break;
      }
    uint32_t Id = B.addState(IsAccept);
    SubsetIds.emplace(H, Id);
    Subsets.push_back(std::move(Subset));
    return Id;
  };

  uint32_t StartId = internSubset(N.epsClosure({N.start()}));
  B.setStart(StartId);

  for (uint32_t Id = 0; Id < Subsets.size(); ++Id) {
    // Copy: interning may reallocate Subsets.
    std::vector<uint32_t> Cur = Subsets[Id];
    for (size_t BI = 0; BI < Boundaries.size(); ++BI) {
      unsigned char C = Boundaries[BI];
      unsigned char End = BI + 1 < Boundaries.size()
                              ? static_cast<unsigned char>(Boundaries[BI + 1] - 1)
                              : MaxAlphabetChar;
      std::vector<uint32_t> Next;
      for (uint32_t S : Cur)
        for (const NfaEdge &E : N.edgesFrom(S))
          if (C >= E.Lo && C <= E.Hi)
            Next.push_back(E.To);
      std::sort(Next.begin(), Next.end());
      Next.erase(std::unique(Next.begin(), Next.end()), Next.end());
      uint32_t NextId = internSubset(N.epsClosure(std::move(Next)));
      for (unsigned CI = C - MinAlphabetChar;
           CI <= static_cast<unsigned>(End - MinAlphabetChar); ++CI)
        B.setTransition(Id, CI, NextId);
    }
  }
  return B.finish();
}

bool Dfa::matches(const std::string &Input) const {
  uint32_t S = Start;
  for (char C : Input) {
    unsigned char U = static_cast<unsigned char>(C);
    if (U < MinAlphabetChar || U > MaxAlphabetChar)
      return false;
    S = Table[S * AlphabetSize + (U - MinAlphabetChar)];
  }
  return Accept[S];
}

bool Dfa::isEmpty() const {
  // BFS from the start state looking for an accepting state.
  std::vector<bool> Seen(numStates(), false);
  std::deque<uint32_t> Work{Start};
  Seen[Start] = true;
  while (!Work.empty()) {
    uint32_t S = Work.front();
    Work.pop_front();
    if (Accept[S])
      return false;
    for (unsigned C = 0; C < AlphabetSize; ++C) {
      uint32_t T = Table[S * AlphabetSize + C];
      if (!Seen[T]) {
        Seen[T] = true;
        Work.push_back(T);
      }
    }
  }
  return true;
}

bool Dfa::isTotal() const { return complement().isEmpty(); }

Dfa Dfa::complement() const {
  Dfa D = *this;
  for (size_t I = 0; I < D.Accept.size(); ++I)
    D.Accept[I] = !D.Accept[I];
  return D;
}

Dfa Dfa::minimize() const {
  // Drop unreachable states first.
  std::vector<uint32_t> Map(numStates(), UINT32_MAX);
  std::vector<uint32_t> Order;
  Map[Start] = 0;
  Order.push_back(Start);
  for (size_t I = 0; I < Order.size(); ++I) {
    uint32_t S = Order[I];
    for (unsigned C = 0; C < AlphabetSize; ++C) {
      uint32_t T = Table[S * AlphabetSize + C];
      if (Map[T] == UINT32_MAX) {
        Map[T] = static_cast<uint32_t>(Order.size());
        Order.push_back(T);
      }
    }
  }
  uint32_t N = static_cast<uint32_t>(Order.size());

  // Moore partition refinement on the reachable sub-automaton.
  std::vector<uint32_t> Class(N);
  for (uint32_t I = 0; I < N; ++I)
    Class[I] = Accept[Order[I]] ? 1 : 0;
  uint32_t NumClasses = 2;
  // Special case: all states in one class.
  if (std::all_of(Class.begin(), Class.end(),
                  [&](uint32_t C) { return C == Class[0]; }))
    NumClasses = 1;

  // Characters that every reachable state maps alike share one signature
  // slot: keep one representative per distinct transition column.
  std::vector<unsigned> Reps;
  for (unsigned C = 0; C < AlphabetSize; ++C)
    if (std::none_of(Reps.begin(), Reps.end(), [&](unsigned R) {
          return std::all_of(Order.begin(), Order.end(), [&](uint32_t S) {
            return Table[S * AlphabetSize + R] == Table[S * AlphabetSize + C];
          });
        }))
      Reps.push_back(C);

  // Refinement converges within N rounds: a round that splits no class
  // leaves the partition as it was.
  const size_t SigLen = 1 + Reps.size();
  bool Changed = true;
  while (Changed) {
    // Signature: own class + successor classes. New classes are keyed on
    // the full signature; the hash only picks the bucket.
    std::unordered_multimap<uint64_t, uint32_t> SigIds;
    SigIds.reserve(N * 2);
    std::vector<uint32_t> Sigs; // SigLen entries per new class
    std::vector<uint32_t> Sig(SigLen);
    std::vector<uint32_t> NewClass(N);
    for (uint32_t I = 0; I < N; ++I) {
      Sig[0] = Class[I];
      for (size_t R = 0; R < Reps.size(); ++R)
        Sig[1 + R] = Class[Map[Table[Order[I] * AlphabetSize + Reps[R]]]];
      uint64_t H = hashSeq(Sig);
      uint32_t Id = UINT32_MAX;
      for (auto [It, End] = SigIds.equal_range(H); It != End; ++It)
        if (std::equal(Sig.begin(), Sig.end(),
                       Sigs.begin() + It->second * SigLen)) {
          Id = It->second;
          break;
        }
      if (Id == UINT32_MAX) {
        Id = static_cast<uint32_t>(SigIds.size());
        SigIds.emplace(H, Id);
        Sigs.insert(Sigs.end(), Sig.begin(), Sig.end());
      }
      NewClass[I] = Id;
    }
    Changed = SigIds.size() != NumClasses;
    NumClasses = static_cast<uint32_t>(SigIds.size());
    Class = std::move(NewClass);
  }

  // Build the quotient automaton.
  DfaBuilder B;
  std::vector<uint32_t> Rep(NumClasses, UINT32_MAX);
  for (uint32_t I = 0; I < N; ++I)
    if (Rep[Class[I]] == UINT32_MAX)
      Rep[Class[I]] = I;
  for (uint32_t C = 0; C < NumClasses; ++C)
    B.addState(Accept[Order[Rep[C]]]);
  for (uint32_t C = 0; C < NumClasses; ++C) {
    uint32_t S = Order[Rep[C]];
    for (unsigned Ch = 0; Ch < AlphabetSize; ++Ch)
      B.setTransition(C, Ch, Class[Map[Table[S * AlphabetSize + Ch]]]);
  }
  B.setStart(Class[0]);
  return B.finish();
}

Dfa Dfa::product(const Dfa &A, const Dfa &B, bool AcceptBoth) {
  // On-the-fly reachable product.
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> Ids;
  std::vector<std::pair<uint32_t, uint32_t>> States;
  DfaBuilder Builder;

  auto intern = [&](uint32_t SA, uint32_t SB) -> uint32_t {
    auto Key = std::make_pair(SA, SB);
    auto It = Ids.find(Key);
    if (It != Ids.end())
      return It->second;
    bool Acc = AcceptBoth ? (A.Accept[SA] && B.Accept[SB])
                          : (A.Accept[SA] || B.Accept[SB]);
    uint32_t Id = Builder.addState(Acc);
    Ids.emplace(Key, Id);
    States.push_back(Key);
    return Id;
  };

  uint32_t StartId = intern(A.Start, B.Start);
  Builder.setStart(StartId);
  for (uint32_t Id = 0; Id < States.size(); ++Id) {
    auto [SA, SB] = States[Id];
    for (unsigned C = 0; C < AlphabetSize; ++C) {
      uint32_t TA = A.Table[SA * AlphabetSize + C];
      uint32_t TB = B.Table[SB * AlphabetSize + C];
      Builder.setTransition(Id, C, intern(TA, TB));
    }
  }
  return Builder.finish();
}

std::optional<std::string> Dfa::shortestAccepted() const {
  if (Accept[Start])
    return std::string();
  // BFS with parent pointers.
  std::vector<int64_t> Parent(numStates(), -1);
  std::vector<char> Via(numStates(), 0);
  std::vector<bool> Seen(numStates(), false);
  std::deque<uint32_t> Work{Start};
  Seen[Start] = true;
  while (!Work.empty()) {
    uint32_t S = Work.front();
    Work.pop_front();
    for (unsigned C = 0; C < AlphabetSize; ++C) {
      uint32_t T = Table[S * AlphabetSize + C];
      if (Seen[T])
        continue;
      Seen[T] = true;
      Parent[T] = S;
      Via[T] = static_cast<char>(MinAlphabetChar + C);
      if (Accept[T]) {
        std::string Out;
        for (uint32_t Cur = T; Cur != Start;
             Cur = static_cast<uint32_t>(Parent[Cur]))
          Out.push_back(Via[Cur]);
        std::reverse(Out.begin(), Out.end());
        return Out;
      }
      Work.push_back(T);
    }
  }
  return std::nullopt;
}

std::optional<std::string> Dfa::distinguishingString(const Dfa &A,
                                                     const Dfa &B) {
  // BFS over the pair graph looking for a state accepted by exactly one.
  std::map<std::pair<uint32_t, uint32_t>, std::pair<int64_t, char>> Info;
  std::vector<std::pair<uint32_t, uint32_t>> Order;
  auto Start = std::make_pair(A.Start, B.Start);
  Info[Start] = {-1, 0};
  Order.push_back(Start);
  for (size_t I = 0; I < Order.size(); ++I) {
    auto [SA, SB] = Order[I];
    if (A.Accept[SA] != B.Accept[SB]) {
      // Reconstruct the witness.
      std::string Out;
      auto Cur = Order[I];
      while (true) {
        auto [ParentIdx, C] = Info[Cur];
        if (ParentIdx < 0)
          break;
        Out.push_back(C);
        Cur = Order[static_cast<size_t>(ParentIdx)];
      }
      std::reverse(Out.begin(), Out.end());
      return Out;
    }
    for (unsigned C = 0; C < AlphabetSize; ++C) {
      auto Next = std::make_pair(A.Table[SA * AlphabetSize + C],
                                 B.Table[SB * AlphabetSize + C]);
      if (Info.count(Next))
        continue;
      Info[Next] = {static_cast<int64_t>(I),
                    static_cast<char>(MinAlphabetChar + C)};
      Order.push_back(Next);
    }
  }
  return std::nullopt;
}

uint64_t Dfa::countStringsOfLength(unsigned Len) const {
  constexpr uint64_t Cap = 1ull << 62;
  std::vector<uint64_t> Count(numStates(), 0);
  Count[Start] = 1;
  for (unsigned I = 0; I < Len; ++I) {
    std::vector<uint64_t> Next(numStates(), 0);
    for (uint32_t S = 0; S < numStates(); ++S) {
      if (!Count[S])
        continue;
      for (unsigned C = 0; C < AlphabetSize; ++C) {
        uint32_t T = Table[S * AlphabetSize + C];
        Next[T] = std::min(Cap, Next[T] + Count[S]);
      }
    }
    Count = std::move(Next);
  }
  uint64_t Total = 0;
  for (uint32_t S = 0; S < numStates(); ++S)
    if (Accept[S])
      Total = std::min(Cap, Total + Count[S]);
  return Total;
}
