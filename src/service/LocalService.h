//===- service/LocalService.h - Ticket-based synthesis service --*- C++ -*-===//
//
// Part of the Regel reproduction. The asynchronous, ticket-based service
// over one in-process engine::Engine that the socket server (and any
// other event loop) runs on: tickets map 1:1 to engine job handles, each
// job's onComplete continuation files its result under its ticket, and
// health() reads the queue gauge plus the service-time estimator.
//
// The API is deliberately narrower than the in-process engine handle:
//
//   * submit() returns a Ticket immediately; the job's result arrives
//     later as a Completion from pollCompleted(). Every submitted job
//     produces EXACTLY ONE completion, including jobs that finish at
//     submit (rejected by admission control, shed on arrival, empty).
//   * Completions are per service: several services (and handle-based
//     clients such as Regel) may share one engine, and each service
//     delivers exactly its own tickets. One loop polls a given service;
//     submitting from that same loop (as the socket server does) is the
//     intended shape.
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

/// One finished job, as delivered by pollCompleted.
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
  /// Serves \p Eng (never null). The engine may be shared with other
  /// services and with handle-based clients.
  explicit LocalService(std::shared_ptr<engine::Engine> Eng);

  /// Submits one job; never blocks on synthesis. The returned ticket's
  /// completion is delivered by pollCompleted exactly once (even for jobs
  /// rejected/shed at submit).
  Ticket submit(engine::JobRequest R);

  /// Requests cancellation of an in-flight ticket. Returns false when
  /// the ticket is unknown or already completed. A cancelled job still
  /// delivers its (partial) completion.
  bool cancel(Ticket T);

  /// Sweeps the engine's residency deadlines (so a queued job whose SLA
  /// lapsed completes now, even with every worker busy), then drains
  /// every completion that arrived since the last drain, in completion
  /// order. Non-blocking.
  std::vector<Completion> pollCompleted();

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
  /// Everything a job's continuation touches. Continuations capture this
  /// (never their job handle, which ByTicket already holds), so a
  /// completion firing after the service died still writes live state.
  struct State {
    Mutex M;
    Ticket NextTicket REGEL_GUARDED_BY(M) = 1;
    /// In-flight tickets (for cancel); a continuation erases its own.
    std::unordered_map<Ticket, engine::JobPtr> ByTicket REGEL_GUARDED_BY(M);
    /// Completions not yet drained by pollCompleted.
    std::vector<Completion> Ready REGEL_GUARDED_BY(M);
    std::function<void()> Wake REGEL_GUARDED_BY(M);
  };

  std::shared_ptr<engine::Engine> Eng;
  std::shared_ptr<State> St;
};

} // namespace regel::service

#endif // REGEL_SERVICE_LOCALSERVICE_H
