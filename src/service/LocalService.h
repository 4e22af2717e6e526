//===- service/LocalService.h - Ticket-based synthesis service --*- C++ -*-===//
//
// Part of the Regel reproduction. The asynchronous, ticket-based service
// over one in-process engine::Engine that the socket server (and any
// other event loop) runs on: tickets map 1:1 to engine job handles, the
// completion stream is the engine's completion queue, and health() reads
// the queue gauge plus the service-time estimator.
//
// The API is deliberately narrower than the in-process engine handle:
//
//   * submit() returns a Ticket immediately; the job's result arrives
//     later as a Completion from pollCompleted()/waitCompleted(). Every
//     submitted job produces EXACTLY ONE completion, including jobs that
//     finish at submit (rejected by admission control, shed on arrival).
//   * Completion delivery is a SINGLE-CONSUMER stream: the service must
//     be its engine's ONLY completion-queue consumer
//     (Engine::pollCompleted is a destructive single-consumer drain), and
//     exactly one loop may poll a given service instance. Submitting
//     from that same loop (as the socket server does) is the intended
//     shape. Clients of the same engine that complete via
//     onComplete/waitFor (Regel's blocking API) are unaffected.
//   * setWakeup() installs an event-loop poke: the hook MAY be invoked
//     from arbitrary threads whenever a completion becomes pollable
//     (spurious wakeups allowed, so it must only signal — e.g. write a
//     self-pipe — never poll re-entrantly).
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SERVICE_LOCALSERVICE_H
#define REGEL_SERVICE_LOCALSERVICE_H

#include "engine/Engine.h"
#include "support/Mutex.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace regel::service {

/// Opaque handle to a submitted job, unique per service instance. 0 is
/// never a valid ticket.
using Ticket = uint64_t;

/// One finished job, as delivered by pollCompleted/waitCompleted.
struct Completion {
  Ticket Id = 0;
  engine::JobResult Result;
};

/// The service's load snapshot (see LocalService::health).
struct ServiceHealth {
  uint64_t QueueDepth = 0; ///< jobs submitted but not yet completed
  unsigned Workers = 0;    ///< worker threads behind this service
  /// Estimated queue wait for a submission arriving now, in ms: queue
  /// depth x blended EWMA service time / workers — the model the
  /// engine's deadline-aware shedding uses. 0 while the estimator is
  /// cold.
  double EstWaitMs = 0;
  /// Milliseconds until the earliest queued job's residency SLA lapses;
  /// -1 when none. An event loop bounds its poll timeout by this so
  /// eager expiry verdicts surface the moment they are due.
  int64_t NextDeadlineDeltaMs = -1;
};

/// The asynchronous ticket-based service (see file header).
class LocalService {
public:
  /// Serves \p Eng (never null). The engine may be shared with
  /// handle-based clients, but not with another completion-queue
  /// consumer.
  explicit LocalService(std::shared_ptr<engine::Engine> Eng);

  /// Submits one job; never blocks on synthesis. The returned ticket's
  /// completion is delivered through the completion stream exactly once
  /// (even for jobs rejected/shed at submit). Forces completion-queue
  /// delivery regardless of R.EnqueueCompletion — the stream is the only
  /// result channel this API has.
  Ticket submit(engine::JobRequest R);

  /// Requests cancellation of an in-flight ticket. Returns false when
  /// the ticket is unknown or already completed. A cancelled job still
  /// delivers its (partial) completion.
  bool cancel(Ticket T);

  /// Drains every completion that arrived since the last drain, in
  /// completion order. Non-blocking. Single consumer (see file header).
  std::vector<Completion> pollCompleted();

  /// Like pollCompleted, but blocks up to \p TimeoutMs for at least one
  /// completion. Returns empty on timeout.
  std::vector<Completion> waitCompleted(int64_t TimeoutMs);

  /// Point-in-time monitoring snapshot: the engine's stats JSON.
  std::string statsJson() const { return Eng->snapshot().toJson(); }

  /// Cheap load figures (called once per event-loop turn; must not
  /// serialize the whole stats).
  ServiceHealth health() const;

  /// Prometheus-style text exposition of the engine's metrics registry
  /// (see obs::Registry and docs/OBSERVABILITY.md).
  std::string metricsText() const { return Eng->metricsText(); }

  /// Chrome trace_event JSON of retained span trace \p Id, as reported in
  /// JobResult::TraceId ("" when unknown: never traced, sampled out, or
  /// already evicted from the retention ring).
  std::string traceJson(uint64_t Id) const { return Eng->traceJson(Id); }

  /// Installs \p Fn as the completion wakeup (nullptr clears it). May be
  /// invoked from arbitrary threads; spurious invocations allowed.
  /// Install before the first submit or accept missed pokes for earlier
  /// jobs.
  void setWakeup(std::function<void()> Fn);

private:
  std::vector<Completion> mapCompletions(std::vector<engine::JobPtr> Jobs);

  /// The wakeup hook, shared with per-job continuations so a completion
  /// firing after this service died still targets live state.
  struct WakeHook {
    Mutex M;
    std::function<void()> Fn REGEL_GUARDED_BY(M);
  };

  std::shared_ptr<engine::Engine> Eng;
  std::shared_ptr<WakeHook> Hook;

  mutable Mutex M;
  Ticket NextTicket REGEL_GUARDED_BY(M) = 1;
  std::unordered_map<const engine::SynthJob *, Ticket>
      ByJob REGEL_GUARDED_BY(M);
  std::unordered_map<Ticket, engine::JobPtr> ByTicket REGEL_GUARDED_BY(M);
  /// Submits with a reserved ticket whose Eng->submit call (outside M)
  /// has not returned; while nonzero, the drain parks unmapped jobs in
  /// Stash instead of dropping them.
  unsigned InFlightSubmits REGEL_GUARDED_BY(M) = 0;
  /// Completed jobs the drain could not map to a ticket yet; the owning
  /// submit tail claims its entry (bounded by InFlightSubmits).
  std::vector<engine::JobPtr> Stash REGEL_GUARDED_BY(M);
  /// Stash claims remapped to their tickets, awaiting the next drain.
  std::vector<Completion> Ready REGEL_GUARDED_BY(M);
};

} // namespace regel::service

#endif // REGEL_SERVICE_LOCALSERVICE_H
