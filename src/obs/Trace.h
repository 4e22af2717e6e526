//===- obs/Trace.h - Per-job span tracing -----------------------*- C++ -*-===//
//
// Part of the Regel reproduction. A TraceContext rides inside JobRequest
// from submit to completion; every layer the job crosses (queue, dispatch,
// per-sketch task, SMT constant inference) records closed
// spans into it. The Tracer decides which contexts exist (sampling) and
// which finished traces are retained (a bounded ring), and exports a
// retained trace as Chrome `trace_event` JSON — load it in
// chrome://tracing or Perfetto.
//
// Sampling policy: the sampling decision is made at trace creation from a
// deterministic per-sequence hash (no RNG — reproducible under test), but
// retention is decided at completion: traces of jobs that failed their
// service goals (shed, rejected, expired in queue, deadline or residency
// SLA missed) are ALWAYS retained, sampled successes probabilistically.
// That way the traces you actually need — "why was this job slow?" — are
// never the ones the sampler dropped.
//
// Span timestamps come from the caller, who reads the engine's Clock seam;
// this file never touches wall time. Under ManualClock every span duration
// is an exact virtual-tick count.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_OBS_TRACE_H
#define REGEL_OBS_TRACE_H

#include "support/Mutex.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace regel {
namespace obs {

/// One closed span: [StartUs, StartUs + DurUs] on the engine clock.
struct Span {
  std::string Name;                  ///< e.g. "queue", "task", "smt_infer"
  std::string Cat;                   ///< taxonomy bucket: job|task|smt
  int64_t StartUs = 0;
  int64_t DurUs = 0;
  int64_t Tid = 0;                   ///< lane: 0 = job lane, 1+N = sketch rank N
  std::vector<std::pair<std::string, std::string>> Args;
};

/// The per-job span sink. Thread-safe: parallel sketch tasks append
/// concurrently. Span count is capped (MaxSpans) with a drop counter, so
/// a pathological job cannot balloon retained memory.
class TraceContext {
public:
  TraceContext(uint64_t Id, bool Sampled, unsigned MaxSpans)
      : Id(Id), Sampled(Sampled), MaxSpans(MaxSpans) {}

  uint64_t id() const { return Id; }
  bool sampled() const { return Sampled; }

  void span(Span S) {
    MutexLock G(M);
    if (Spans.size() >= MaxSpans) {
      ++DroppedSpans;
      return;
    }
    Spans.push_back(std::move(S));
  }

  /// Convenience: closed span without args.
  void span(const char *Name, const char *Cat, int64_t StartUs, int64_t DurUs,
            int64_t Tid = 0) {
    Span S;
    S.Name = Name;
    S.Cat = Cat;
    S.StartUs = StartUs;
    S.DurUs = DurUs;
    S.Tid = Tid;
    span(std::move(S));
  }

  /// Envelope spans — the job-lane submit/queue/exec/job markers —
  /// bypass the cap. A long search records its detail spans (SMT
  /// inference calls) *before* completion records the envelope, so a
  /// capped trace would otherwise keep 128 `smt_infer` rows and
  /// drop the very spans "why was this job slow?" reads first. The
  /// engine records at most four envelope spans per job, so memory
  /// stays bounded at MaxSpans + O(1).
  void spanEnvelope(const char *Name, const char *Cat, int64_t StartUs,
                    int64_t DurUs, int64_t Tid = 0) {
    Span S;
    S.Name = Name;
    S.Cat = Cat;
    S.StartUs = StartUs;
    S.DurUs = DurUs;
    S.Tid = Tid;
    MutexLock G(M);
    Spans.push_back(std::move(S));
  }

  /// Final verdict string ("solved", "shed", "expired", ...), shown in the
  /// exported trace metadata.
  void setVerdict(const std::string &V) {
    MutexLock G(M);
    Verdict = V;
  }

  /// Chrome trace_event JSON for this trace.
  std::string toJson() const;

  /// Copies out the recorded spans (tests assert exact timelines).
  std::vector<Span> spansCopy() const {
    MutexLock G(M);
    return Spans;
  }

  uint64_t droppedSpans() const {
    MutexLock G(M);
    return DroppedSpans;
  }

private:
  const uint64_t Id;
  const bool Sampled;
  const unsigned MaxSpans;
  mutable Mutex M;
  std::vector<Span> Spans REGEL_GUARDED_BY(M);
  std::string Verdict REGEL_GUARDED_BY(M);
  uint64_t DroppedSpans REGEL_GUARDED_BY(M) = 0;
};

/// Creates trace contexts (sampling) and retains finished ones (bounded
/// ring, failure-priority). Engines hold a shared_ptr so a test can keep
/// the tracer alive past engine destruction.
class Tracer {
public:
  struct Config {
    /// Probability a successful job's trace is retained. Failures (shed,
    /// rejected, expired, SLA-missed) are always retained when
    /// AlwaysKeepFailures is set. 1.0 = keep everything (tests).
    double SampleProb = 0.05;
    bool AlwaysKeepFailures = true;
    /// Finished traces retained, FIFO-evicted.
    unsigned RingCapacity = 256;
    /// Span cap per trace (excess dropped, counted).
    unsigned MaxSpansPerTrace = 128;
  };

  // Two constructors instead of one defaulted argument: a default
  // argument of nested-class type would be needed before Config's member
  // initializers are complete (GCC rejects it).
  Tracer() : Tracer(Config()) {}
  explicit Tracer(Config C) : Cfg(C) {}

  const Config &config() const { return Cfg; }

  /// New context for a starting job. Ids are sequential within a tracer,
  /// starting at 1; the sampling decision is a deterministic hash of the
  /// sequence number, so a fixed SampleProb yields the same kept-set on
  /// every run.
  std::shared_ptr<TraceContext> begin();

  /// Hands a finished trace to the ring. ForceKeep marks a failed job
  /// (kept regardless of sampling when AlwaysKeepFailures). Returns
  /// whether the trace was retained — only then should its id be
  /// advertised (JobResult::TraceId, the wire's trace=).
  bool finish(const std::shared_ptr<TraceContext> &Ctx, bool ForceKeep);

  /// JSON of retained trace \p Id; "" when unknown (sampled out, evicted,
  /// or never existed).
  std::string traceJson(uint64_t Id) const;

  /// Retained trace handle (tests); nullptr when unknown.
  std::shared_ptr<TraceContext> find(uint64_t Id) const;

  size_t retainedCount() const {
    MutexLock G(M);
    return Ring.size();
  }
  uint64_t evictedCount() const {
    MutexLock G(M);
    return Evicted;
  }

private:
  const Config Cfg;
  std::atomic<uint64_t> NextSeq{1};
  mutable Mutex M;
  std::deque<std::shared_ptr<TraceContext>> Ring REGEL_GUARDED_BY(M);
  uint64_t Evicted REGEL_GUARDED_BY(M) = 0;
};

} // namespace obs
} // namespace regel

#endif // REGEL_OBS_TRACE_H
