//===- support/Clock.cpp --------------------------------------------------===//

#include "support/Clock.h"

#include <algorithm>
#include <chrono>

using namespace regel;

const std::shared_ptr<const Clock> &Clock::steady() {
  static const std::shared_ptr<const Clock> Instance =
      std::make_shared<SteadyClock>();
  return Instance;
}

int64_t SteadyClock::nowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SteadyClock::waitFor(std::condition_variable &CV,
                          std::unique_lock<std::mutex> &Lock,
                          int64_t TimeoutMs,
                          const std::function<bool()> &Pred) const {
  return CV.wait_for(Lock,
                     std::chrono::milliseconds(std::max<int64_t>(TimeoutMs, 0)),
                     Pred);
}

namespace {
/// The calling thread's process-wide reader number, never 0.
uint64_t readerNumber() {
  static std::atomic<uint64_t> Next{1};
  thread_local const uint64_t Number =
      Next.fetch_add(1, std::memory_order_relaxed);
  return Number;
}
} // namespace

int64_t ManualClock::nowUs() const {
  // Epoch before Now: advanceUs bumps them in the opposite order, so a read
  // recorded under the current epoch returns the advanced time.
  const uint64_t E = Epoch.load(std::memory_order_acquire);
  const uint64_t Self = readerNumber();
  for (ReaderSlot &Slot : Readers) {
    uint64_t Reader = 0; // a free slot becomes ours
    if (Slot.Reader.compare_exchange_strong(Reader, Self,
                                            std::memory_order_relaxed) ||
        Reader == Self) {
      Slot.Epoch.store(E, std::memory_order_relaxed);
      break;
    }
  }
  return Now.load(std::memory_order_acquire);
}

unsigned ManualClock::readersSinceAdvance() const {
  const uint64_t Self = readerNumber();
  const uint64_t E = Epoch.load(std::memory_order_relaxed);
  unsigned Count = 0;
  for (const ReaderSlot &Slot : Readers) {
    const uint64_t Reader = Slot.Reader.load(std::memory_order_relaxed);
    if (Reader == 0)
      break;
    if (Reader != Self && Slot.Epoch.load(std::memory_order_relaxed) == E)
      ++Count;
  }
  return Count;
}

bool ManualClock::waitFor(std::condition_variable &CV,
                          std::unique_lock<std::mutex> &Lock,
                          int64_t TimeoutMs,
                          const std::function<bool()> &Pred) const {
  const int64_t DeadlineUs = nowUs() + std::max<int64_t>(TimeoutMs, 0) * 1000;
  for (;;) {
    if (Pred())
      return true;
    if (nowUs() >= DeadlineUs)
      return Pred();
    // Short real-time slice: a notify on CV (the predicate's state changed)
    // wakes us immediately; a virtual-clock advance is noticed at the next
    // slice boundary. Real time never decides the outcome.
    CV.wait_for(Lock, std::chrono::milliseconds(1));
  }
}
