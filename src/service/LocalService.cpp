//===- service/LocalService.cpp -------------------------------------------===//

#include "service/LocalService.h"

#include <algorithm>
#include <cassert>

using namespace regel;
using namespace regel::service;

LocalService::LocalService(std::shared_ptr<engine::Engine> Eng)
    : Eng(std::move(Eng)), Hook(std::make_shared<WakeHook>()) {
  assert(this->Eng && "LocalService needs an engine");
}

Ticket LocalService::submit(engine::JobRequest R) {
  // The completion stream is this API's only result channel.
  R.EnqueueCompletion = true;
  // M is deliberately NOT held across the engine call: Engine::submit
  // can run the whole synchronous-completion path (reject/shed,
  // publishCompletion, per-sketch fan-out taking SynthJob::M) and a
  // service lock held across it serializes every concurrent client
  // behind one admission — the analyzer flags it as blocking-under-lock.
  // The cost is a race — the job can complete and be drained before its
  // ticket mapping exists — paid off through Stash: the drain parks jobs
  // it cannot resolve while a submit is in flight, and this tail claims
  // them.
  Ticket T;
  {
    MutexLock Guard(M);
    T = NextTicket++;
    ++InFlightSubmits;
  }
  engine::JobPtr J;
  try {
    J = Eng->submit(std::move(R));
  } catch (...) {
    // Undo the in-flight count on the throwing path too: a stuck
    // nonzero counter makes mapCompletions stash every unmatched job
    // forever and the stash would never drain.
    MutexLock Guard(M);
    if (--InFlightSubmits == 0)
      Stash.clear();
    throw;
  }
  engine::JobPtr Claimed;
  {
    MutexLock Guard(M);
    --InFlightSubmits;
    for (auto It = Stash.begin(); It != Stash.end(); ++It)
      if (It->get() == J.get()) {
        Claimed = std::move(*It);
        Stash.erase(It);
        break;
      }
    if (!Claimed) {
      ByJob[J.get()] = T;
      ByTicket[T] = J;
    }
    // No submit in flight means every stash check has run: whatever is
    // left can match nothing — foreign completions from a violated
    // sole-consumer contract — so drop it.
    if (InFlightSubmits == 0)
      Stash.clear();
  }
  if (Claimed) {
    // The drain beat the mapping; the job is complete, so the result
    // copy is immediate — and taken outside M.
    Completion C;
    C.Id = T;
    C.Result = Claimed->wait();
    {
      MutexLock Guard(M);
      Ready.push_back(std::move(C));
    }
    // The original completion poke fired before the mapping existed and
    // announced nothing deliverable: poke the hook ourselves.
    std::function<void()> Fn;
    {
      MutexLock Guard(Hook->M);
      Fn = Hook->Fn;
    }
    if (Fn)
      Fn();
    return T;
  }
  // Wakeup AFTER the mapping exists; for already-complete jobs this runs
  // synchronously right here, which is fine — the hook only signals.
  J->onComplete([H = Hook](const engine::JobResult &) {
    std::function<void()> Fn;
    {
      MutexLock Guard(H->M);
      Fn = H->Fn;
    }
    if (Fn)
      Fn();
  });
  return T;
}

bool LocalService::cancel(Ticket T) {
  engine::JobPtr J;
  {
    MutexLock Guard(M);
    auto It = ByTicket.find(T);
    if (It == ByTicket.end())
      return false;
    J = It->second;
  }
  J->cancel();
  return true;
}

std::vector<Completion>
LocalService::mapCompletions(std::vector<engine::JobPtr> Jobs) {
  std::vector<Completion> Out;
  std::vector<std::pair<Ticket, engine::JobPtr>> Done;
  {
    MutexLock Guard(M);
    // Stash hits resolved by submit tails are already remapped; deliver
    // them first so completion order stays close to arrival order.
    Out.assign(std::make_move_iterator(Ready.begin()),
               std::make_move_iterator(Ready.end()));
    Ready.clear();
    Done.reserve(Jobs.size());
    for (engine::JobPtr &J : Jobs) {
      auto It = ByJob.find(J.get());
      if (It == ByJob.end()) {
        if (InFlightSubmits > 0)
          Stash.push_back(std::move(J)); // submit tail will claim it
        // else: foreign handle-based job that opted into the queue —
        // dropped, per the sole-consumer contract
        continue;
      }
      Done.emplace_back(It->second, std::move(J));
      ByTicket.erase(It->second);
      ByJob.erase(It);
    }
  }
  // Result copies outside M: the jobs are complete (they came off the
  // completion queue), so wait() returns immediately — but it still
  // takes SynthJob::M, and the mapping lock has no business being held
  // across another class's lock.
  for (auto &Entry : Done) {
    Completion C;
    C.Id = Entry.first;
    C.Result = Entry.second->wait();
    Out.push_back(std::move(C));
  }
  return Out;
}

std::vector<Completion> LocalService::pollCompleted() {
  return mapCompletions(Eng->pollCompleted());
}

std::vector<Completion> LocalService::waitCompleted(int64_t TimeoutMs) {
  {
    // A stash claim parks its completion in Ready without anything in
    // the engine's completion queue to wake the wait below — deliver it
    // before blocking. A claim landing after this check waits for the
    // engine's next completion or the timeout (bounded staleness);
    // event-loop users are covered by the synchronous wake-hook fire in
    // submit().
    MutexLock Guard(M);
    if (!Ready.empty()) {
      std::vector<Completion> Out(
          std::make_move_iterator(Ready.begin()),
          std::make_move_iterator(Ready.end()));
      Ready.clear();
      return Out;
    }
  }
  return mapCompletions(Eng->waitCompleted(TimeoutMs));
}

ServiceHealth LocalService::health() const {
  // Deliberately cheap (no full snapshot): this runs once per event-loop
  // turn.
  ServiceHealth H;
  H.QueueDepth = Eng->queueDepth();
  H.Workers = Eng->threadCount();
  const double BlendedMs = Eng->estimator().blendedEstimateMs();
  if (BlendedMs > 0)
    H.EstWaitMs = BlendedMs * static_cast<double>(H.QueueDepth) /
                  static_cast<double>(std::max(1u, H.Workers));
  const int64_t NextUs = Eng->nextResidencyDeadlineUs();
  if (NextUs != INT64_MAX)
    H.NextDeadlineDeltaMs =
        std::max<int64_t>((NextUs - Eng->clock()->nowUs()) / 1000, 0);
  return H;
}

void LocalService::setWakeup(std::function<void()> Fn) {
  MutexLock Guard(Hook->M);
  Hook->Fn = std::move(Fn);
}
