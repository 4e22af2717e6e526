//===- obs/Metrics.cpp ----------------------------------------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

using namespace regel;
using namespace regel::obs;

//===----------------------------------------------------------------------===//
// Histogram buckets
//===----------------------------------------------------------------------===//

unsigned Histogram::bucketFor(uint64_t Us) {
  if (Us < 8)
    return static_cast<unsigned>(Us);
  unsigned Log = 63 - static_cast<unsigned>(__builtin_clzll(Us));
  if (Log >= LastOctave)
    return OverflowBucket;
  unsigned Sub = static_cast<unsigned>((Us >> (Log - 2)) & (SubBuckets - 1));
  return 8 + (Log - FirstOctave) * SubBuckets + Sub;
}

uint64_t Histogram::bucketUpperUs(unsigned Index) {
  if (Index < 8)
    return Index;
  if (Index >= OverflowBucket)
    return UINT64_MAX;
  unsigned Octave = FirstOctave + (Index - 8) / SubBuckets;
  unsigned Sub = (Index - 8) % SubBuckets;
  uint64_t Width = uint64_t(1) << (Octave - 2);
  return (uint64_t(1) << Octave) + (Sub + 1) * Width - 1;
}

void Histogram::absorb(const HistogramSnapshot &S) {
  if (S.Buckets.size() != NumBuckets)
    return;
  for (unsigned I = 0; I < NumBuckets; ++I)
    if (S.Buckets[I])
      Bkts[I].fetch_add(S.Buckets[I], std::memory_order_relaxed);
  Cnt.fetch_add(S.Count, std::memory_order_relaxed);
  Sum.fetch_add(S.SumUs, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot S;
  S.Buckets.resize(NumBuckets, 0);
  for (unsigned I = 0; I < NumBuckets; ++I)
    S.Buckets[I] = Bkts[I].load(std::memory_order_relaxed);
  S.Count = Cnt.load(std::memory_order_relaxed);
  S.SumUs = Sum.load(std::memory_order_relaxed);
  return S;
}

void HistogramSnapshot::merge(const HistogramSnapshot &Other) {
  if (Other.Buckets.empty())
    return;
  if (Buckets.empty())
    Buckets.resize(Histogram::NumBuckets, 0);
  for (size_t I = 0; I < Buckets.size() && I < Other.Buckets.size(); ++I)
    Buckets[I] += Other.Buckets[I];
  Count += Other.Count;
  SumUs += Other.SumUs;
}

uint64_t HistogramSnapshot::percentileUs(double Q) const {
  if (!Count || Buckets.empty())
    return 0;
  if (Q < 0)
    Q = 0;
  if (Q > 1)
    Q = 1;
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Count));
  if (static_cast<double>(Rank) < Q * static_cast<double>(Count))
    ++Rank; // ceil
  if (Rank < 1)
    Rank = 1;
  uint64_t Cum = 0;
  for (unsigned I = 0; I < Buckets.size(); ++I) {
    Cum += Buckets[I];
    if (Cum >= Rank)
      return Histogram::bucketUpperUs(I);
  }
  return Histogram::bucketUpperUs(Histogram::OverflowBucket);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Registry::Registry(unsigned ShardCount) {
  if (ShardCount < 1)
    ShardCount = 1;
  Shards.reserve(ShardCount);
  for (unsigned I = 0; I < ShardCount; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

Registry::Shard &Registry::shardFor(const std::string &Name,
                                    const std::string &Labels) {
  size_t H = std::hash<std::string>()(Name) * 1099511628211ull ^
             std::hash<std::string>()(Labels);
  return *Shards[H % Shards.size()];
}

const Registry::Shard &Registry::shardFor(const std::string &Name,
                                          const std::string &Labels) const {
  size_t H = std::hash<std::string>()(Name) * 1099511628211ull ^
             std::hash<std::string>()(Labels);
  return *Shards[H % Shards.size()];
}

Counter &Registry::counter(const std::string &Name,
                           const std::string &Labels) {
  Shard &S = shardFor(Name, Labels);
  MutexLock G(S.M);
  std::unique_ptr<Counter> &Slot = S.Counters[{Name, Labels}];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &Registry::gauge(const std::string &Name, const std::string &Labels) {
  Shard &S = shardFor(Name, Labels);
  MutexLock G(S.M);
  std::unique_ptr<Gauge> &Slot = S.Gauges[{Name, Labels}];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &Registry::histogram(const std::string &Name,
                               const std::string &Labels) {
  Shard &S = shardFor(Name, Labels);
  MutexLock G(S.M);
  std::unique_ptr<Histogram> &Slot = S.Histograms[{Name, Labels}];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

HistogramSnapshot
Registry::histogramSnapshot(const std::string &Name,
                            const std::string &Labels) const {
  const Shard &S = shardFor(Name, Labels);
  MutexLock G(S.M);
  auto It = S.Histograms.find({Name, Labels});
  if (It == S.Histograms.end())
    return HistogramSnapshot();
  return It->second->snapshot();
}

namespace {

void appendSeriesName(std::string &Out, const std::string &Name,
                      const std::string &Labels, const char *Suffix = "",
                      const std::string &ExtraLabel = "") {
  Out += Name;
  Out += Suffix;
  if (!Labels.empty() || !ExtraLabel.empty()) {
    Out += '{';
    Out += Labels;
    if (!Labels.empty() && !ExtraLabel.empty())
      Out += ',';
    Out += ExtraLabel;
    Out += '}';
  }
}

void appendU64(std::string &Out, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
  Out += Buf;
}

void appendI64(std::string &Out, int64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%" PRId64, V);
  Out += Buf;
}

} // namespace

std::string Registry::renderText() const {
  // Collect sorted (name, labels) -> value per kind; std::map per shard
  // keeps each shard sorted, so a merged walk stays deterministic.
  std::map<std::pair<std::string, std::string>, uint64_t> Counters;
  std::map<std::pair<std::string, std::string>, int64_t> Gauges;
  std::map<std::pair<std::string, std::string>, HistogramSnapshot> Hists;
  for (const std::unique_ptr<Shard> &S : Shards) {
    MutexLock G(S->M);
    for (const auto &KV : S->Counters)
      Counters[KV.first] = KV.second->value();
    for (const auto &KV : S->Gauges)
      Gauges[KV.first] = KV.second->value();
    for (const auto &KV : S->Histograms)
      Hists[KV.first] = KV.second->snapshot();
  }

  std::string Out;
  Out.reserve(4096);
  const std::string *LastName = nullptr;
  for (const auto &KV : Counters) {
    if (!LastName || *LastName != KV.first.first) {
      Out += "# TYPE " + KV.first.first + " counter\n";
      LastName = &KV.first.first;
    }
    appendSeriesName(Out, KV.first.first, KV.first.second);
    Out += ' ';
    appendU64(Out, KV.second);
    Out += '\n';
  }
  LastName = nullptr;
  for (const auto &KV : Gauges) {
    if (!LastName || *LastName != KV.first.first) {
      Out += "# TYPE " + KV.first.first + " gauge\n";
      LastName = &KV.first.first;
    }
    appendSeriesName(Out, KV.first.first, KV.first.second);
    Out += ' ';
    appendI64(Out, KV.second);
    Out += '\n';
  }
  LastName = nullptr;
  for (const auto &KV : Hists) {
    const std::string &Name = KV.first.first;
    const std::string &Labels = KV.first.second;
    const HistogramSnapshot &S = KV.second;
    if (!LastName || *LastName != Name) {
      Out += "# TYPE " + Name + " histogram\n";
      LastName = &Name;
    }
    // Cumulative buckets; empty buckets elided (the parser attributes the
    // cumulative delta to the line it appears on, which is exact when the
    // elided buckets are zero). +Inf always present.
    uint64_t Cum = 0;
    for (unsigned I = 0; I < Histogram::OverflowBucket; ++I) {
      if (I < S.Buckets.size() && S.Buckets[I]) {
        Cum += S.Buckets[I];
        std::string Le = "le=\"";
        appendU64(Le, Histogram::bucketUpperUs(I));
        Le += '"';
        appendSeriesName(Out, Name, Labels, "_bucket", Le);
        Out += ' ';
        appendU64(Out, Cum);
        Out += '\n';
      }
    }
    appendSeriesName(Out, Name, Labels, "_bucket", "le=\"+Inf\"");
    Out += ' ';
    appendU64(Out, S.Count);
    Out += '\n';
    appendSeriesName(Out, Name, Labels, "_sum");
    Out += ' ';
    appendU64(Out, S.SumUs);
    Out += '\n';
    appendSeriesName(Out, Name, Labels, "_count");
    Out += ' ';
    appendU64(Out, S.Count);
    Out += '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Exposition parsing
//===----------------------------------------------------------------------===//

namespace {

/// One `name{labels} value` line split into parts. Labels keep their
/// original text (minus a `le` pair, extracted separately for buckets).
struct SeriesLine {
  std::string Name;
  std::string Labels;
  std::string LeValue; ///< empty when no le label present
  std::string Value;
};

/// Splits a label body at top-level commas (commas inside quoted label
/// values do not split).
std::vector<std::string> splitLabels(const std::string &Body) {
  std::vector<std::string> Parts;
  std::string Cur;
  bool InQuote = false;
  for (size_t I = 0; I < Body.size(); ++I) {
    char C = Body[I];
    if (C == '"' && (I == 0 || Body[I - 1] != '\\'))
      InQuote = !InQuote;
    if (C == ',' && !InQuote) {
      Parts.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Parts.push_back(Cur);
  return Parts;
}

bool parseSeriesLine(const std::string &Line, SeriesLine &Out) {
  size_t Brace = Line.find('{');
  size_t Space = Line.find(' ');
  if (Space == std::string::npos)
    return false;
  if (Brace != std::string::npos && Brace < Space) {
    // name{labels} value — find the closing brace outside quotes.
    bool InQuote = false;
    size_t Close = std::string::npos;
    for (size_t I = Brace + 1; I < Line.size(); ++I) {
      char C = Line[I];
      if (C == '"' && Line[I - 1] != '\\')
        InQuote = !InQuote;
      else if (C == '}' && !InQuote) {
        Close = I;
        break;
      }
    }
    if (Close == std::string::npos || Close + 2 > Line.size() ||
        Line[Close + 1] != ' ')
      return false;
    Out.Name = Line.substr(0, Brace);
    Out.Value = Line.substr(Close + 2);
    Out.Labels.clear();
    Out.LeValue.clear();
    for (const std::string &Pair : splitLabels(
             Line.substr(Brace + 1, Close - Brace - 1))) {
      if (Pair.compare(0, 4, "le=\"") == 0 && Pair.size() >= 5 &&
          Pair.back() == '"') {
        Out.LeValue = Pair.substr(4, Pair.size() - 5);
      } else {
        if (!Out.Labels.empty())
          Out.Labels += ',';
        Out.Labels += Pair;
      }
    }
    return !Out.Name.empty() && !Out.Value.empty();
  }
  Out.Name = Line.substr(0, Space);
  Out.Labels.clear();
  Out.LeValue.clear();
  Out.Value = Line.substr(Space + 1);
  return !Out.Name.empty() && !Out.Value.empty();
}

bool parseU64Strict(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (errno || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

bool parseI64Strict(const std::string &S, int64_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(S.c_str(), &End, 10);
  if (errno || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

/// Histogram series under reconstruction from cumulative bucket lines.
struct HistAccum {
  std::vector<std::pair<uint64_t, uint64_t>> LeCum; ///< (le us, cumulative)
  uint64_t InfCum = 0;
  bool HaveInf = false;
  uint64_t Sum = 0;
  bool HaveSum = false;
  uint64_t Count = 0;
  bool HaveCount = false;
};

} // namespace

size_t Registry::absorbText(const std::string &Text) {
  // Pass 1: TYPE lines give each metric name its kind; data lines are
  // bucketed per kind. Unknown or malformed lines are skipped — a
  // scraper must tolerate a server a version ahead.
  std::map<std::string, char> TypeOf; // 'c' / 'g' / 'h'
  std::vector<SeriesLine> Data;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      // "# TYPE <name> <kind>"
      if (Line.compare(0, 7, "# TYPE ") == 0) {
        size_t NameEnd = Line.find(' ', 7);
        if (NameEnd != std::string::npos) {
          std::string Kind = Line.substr(NameEnd + 1);
          char K = Kind == "counter" ? 'c'
                   : Kind == "gauge" ? 'g'
                   : Kind == "histogram" ? 'h'
                                         : 0;
          if (K)
            TypeOf[Line.substr(7, NameEnd - 7)] = K;
        }
      }
      continue;
    }
    SeriesLine SL;
    if (parseSeriesLine(Line, SL))
      Data.push_back(std::move(SL));
  }

  size_t Absorbed = 0;
  std::map<std::pair<std::string, std::string>, HistAccum> Accums;
  for (const SeriesLine &SL : Data) {
    auto TypeIt = TypeOf.find(SL.Name);
    if (TypeIt != TypeOf.end() && TypeIt->second == 'c') {
      uint64_t V;
      if (parseU64Strict(SL.Value, V)) {
        counter(SL.Name, SL.Labels).add(V);
        ++Absorbed;
      }
      continue;
    }
    if (TypeIt != TypeOf.end() && TypeIt->second == 'g') {
      int64_t V;
      if (parseI64Strict(SL.Value, V)) {
        gauge(SL.Name, SL.Labels).add(V);
        ++Absorbed;
      }
      continue;
    }
    // Histogram component? Strip the suffix and look the base name up.
    for (const char *Suffix : {"_bucket", "_sum", "_count"}) {
      size_t SufLen = std::strlen(Suffix);
      if (SL.Name.size() <= SufLen ||
          SL.Name.compare(SL.Name.size() - SufLen, SufLen, Suffix) != 0)
        continue;
      std::string Base = SL.Name.substr(0, SL.Name.size() - SufLen);
      auto BaseIt = TypeOf.find(Base);
      if (BaseIt == TypeOf.end() || BaseIt->second != 'h')
        continue;
      HistAccum &A = Accums[{Base, SL.Labels}];
      uint64_t V;
      if (!parseU64Strict(SL.Value, V))
        break;
      if (SufLen == 7 /* _bucket */) {
        if (SL.LeValue == "+Inf") {
          A.InfCum = V;
          A.HaveInf = true;
        } else {
          uint64_t Le;
          if (parseU64Strict(SL.LeValue, Le))
            A.LeCum.push_back({Le, V});
        }
      } else if (Suffix[1] == 's') {
        A.Sum = V;
        A.HaveSum = true;
      } else {
        A.Count = V;
        A.HaveCount = true;
      }
      break;
    }
  }

  for (auto &KV : Accums) {
    HistAccum &A = KV.second;
    if (!A.HaveInf || !A.HaveCount || !A.HaveSum || A.InfCum != A.Count)
      continue;
    std::sort(A.LeCum.begin(), A.LeCum.end());
    HistogramSnapshot S;
    S.Buckets.resize(Histogram::NumBuckets, 0);
    uint64_t Prev = 0;
    bool Ok = true;
    for (const auto &LC : A.LeCum) {
      unsigned Idx = Histogram::bucketFor(LC.first);
      // The le bound must be exactly a bucket upper bound of the fixed
      // layout, and cumulative values must be non-decreasing.
      if (Histogram::bucketUpperUs(Idx) != LC.first || LC.second < Prev) {
        Ok = false;
        break;
      }
      S.Buckets[Idx] += LC.second - Prev;
      Prev = LC.second;
    }
    if (!Ok || A.InfCum < Prev)
      continue;
    S.Buckets[Histogram::OverflowBucket] += A.InfCum - Prev;
    S.Count = A.Count;
    S.SumUs = A.Sum;
    histogram(KV.first.first, KV.first.second).absorb(S);
    ++Absorbed;
  }
  return Absorbed;
}

//===----------------------------------------------------------------------===//
// JSON escaping
//===----------------------------------------------------------------------===//

std::string obs::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (U < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", U);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}
