//===- obs/Trace.cpp ------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Metrics.h"
#include "support/Hash.h"

#include <cinttypes>
#include <cstdio>

using namespace regel;
using namespace regel::obs;

namespace {

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

std::shared_ptr<TraceContext> Tracer::begin() {
  uint64_t Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  bool Sampled = true;
  if (Cfg.SampleProb < 1.0) {
    const uint64_t Scale = uint64_t(1) << 32;
    uint64_t Threshold =
        Cfg.SampleProb <= 0
            ? 0
            : static_cast<uint64_t>(Cfg.SampleProb * static_cast<double>(Scale));
    Sampled = (mix64(Seq) & (Scale - 1)) < Threshold;
  }
  return std::make_shared<TraceContext>(Seq, Sampled,
                                        Cfg.MaxSpansPerTrace);
}

bool Tracer::finish(const std::shared_ptr<TraceContext> &Ctx, bool ForceKeep) {
  if (!Ctx)
    return false;
  bool Keep = Ctx->sampled() || (ForceKeep && Cfg.AlwaysKeepFailures);
  if (!Keep)
    return false;
  MutexLock G(M);
  Ring.push_back(Ctx);
  while (Ring.size() > Cfg.RingCapacity) {
    Ring.pop_front();
    ++Evicted;
  }
  return true;
}

std::shared_ptr<TraceContext> Tracer::find(uint64_t Id) const {
  MutexLock G(M);
  // Newest first: after an id wrap (never in practice) or duplicate
  // retention the most recent trace wins.
  for (auto It = Ring.rbegin(); It != Ring.rend(); ++It)
    if ((*It)->id() == Id)
      return *It;
  return nullptr;
}

std::string Tracer::traceJson(uint64_t Id) const {
  std::shared_ptr<TraceContext> Ctx = find(Id);
  return Ctx ? Ctx->toJson() : std::string();
}

std::string TraceContext::toJson() const {
  MutexLock G(M);
  std::string Out;
  Out.reserve(256 + Spans.size() * 96);
  Out += "{\"traceEvents\":[";
  bool First = true;
  for (const Span &S : Spans) {
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"name\":\"";
    Out += jsonEscape(S.Name);
    Out += "\",\"cat\":\"";
    Out += jsonEscape(S.Cat);
    Out += "\",\"ph\":\"X\",\"ts\":";
    appendI64(Out, S.StartUs);
    Out += ",\"dur\":";
    appendI64(Out, S.DurUs);
    Out += ",\"pid\":1,\"tid\":";
    appendI64(Out, S.Tid);
    if (!S.Args.empty()) {
      Out += ",\"args\":{";
      bool FirstArg = true;
      for (const auto &KV : S.Args) {
        if (!FirstArg)
          Out += ',';
        FirstArg = false;
        Out += '"';
        Out += jsonEscape(KV.first);
        Out += "\":\"";
        Out += jsonEscape(KV.second);
        Out += '"';
      }
      Out += '}';
    }
    Out += '}';
  }
  Out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"trace_id\":\"";
  appendU64(Out, Id);
  Out += "\",\"verdict\":\"";
  Out += jsonEscape(Verdict);
  Out += "\",\"dropped_spans\":\"";
  appendU64(Out, DroppedSpans);
  Out += "\"}}";
  return Out;
}
