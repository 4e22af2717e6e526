//===- service/LocalService.cpp -------------------------------------------===//

#include "service/LocalService.h"

#include <algorithm>
#include <cassert>

using namespace regel;
using namespace regel::service;

LocalService::LocalService(std::shared_ptr<engine::Engine> Eng)
    : Eng(std::move(Eng)), St(std::make_shared<State>()) {
  assert(this->Eng && "LocalService needs an engine");
}

Ticket LocalService::submit(engine::JobRequest R) {
  Ticket T;
  {
    MutexLock Guard(St->M);
    T = St->NextTicket++;
  }
  // M is not held across the engine call: Engine::submit can run a whole
  // synchronous completion (reject/shed/empty) or the per-sketch fan-out,
  // and a service lock held across it would serialize every concurrent
  // client behind one admission.
  engine::JobPtr J = Eng->submit(std::move(R));
  {
    MutexLock Guard(St->M);
    St->ByTicket.emplace(T, J);
  }
  // Registered after the mapping exists, outside M: onComplete runs the
  // continuation exactly once, here and now for a job that already
  // finished, else on the thread that finishes it.
  J->onComplete([S = St, T](const engine::JobResult &Result) {
    Completion C{T, Result};
    std::function<void()> Wake;
    {
      MutexLock Guard(S->M);
      S->ByTicket.erase(T);
      S->Ready.push_back(std::move(C));
      Wake = S->Wake;
    }
    if (Wake)
      Wake();
  });
  return T;
}

bool LocalService::cancel(Ticket T) {
  engine::JobPtr J;
  {
    MutexLock Guard(St->M);
    auto It = St->ByTicket.find(T);
    if (It == St->ByTicket.end())
      return false;
    J = It->second;
  }
  J->cancel();
  return true;
}

std::vector<Completion> LocalService::pollCompleted() {
  // Before taking M: the sweep runs the expired jobs' continuations,
  // which take M themselves.
  Eng->sweepExpiredQueued();
  std::vector<Completion> Out;
  MutexLock Guard(St->M);
  Out.swap(St->Ready);
  return Out;
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
  MutexLock Guard(St->M);
  St->Wake = std::move(Fn);
}
