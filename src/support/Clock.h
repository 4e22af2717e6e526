//===- support/Clock.h - Injectable monotonic time source -------*- C++ -*-===//
//
// Part of the Regel reproduction. The engine-wide time seam: every place
// that reads "now" for a semantic decision — job residency SLAs, search
// deadlines, timed waits, queue-wait accounting — goes through a Clock so
// tests can substitute a ManualClock that advances only when told. That
// turns every SLA/deadline/timeout test from "sleep and hope the margin
// holds" into exact-tick assertions that run in milliseconds of wall time.
//
// Two implementations:
//
//   * SteadyClock — std::chrono::steady_clock, the production default.
//     Its waitFor is a plain condition_variable::wait_for, so the seam
//     costs nothing on the serving path.
//   * ManualClock — virtual time, advanced explicitly by the test. Its
//     waitFor decides timeouts purely in virtual time; real time only
//     bounds how quickly a waiter notices an advance (a short poll), never
//     whether it times out. Outcomes are deterministic.
//
// The waitable half of the seam matters as much as now(): a
// SynthJob::waitFor(50) must time out when 50 *virtual* milliseconds have
// passed, or a ManualClock test could never exercise timeout paths.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SUPPORT_CLOCK_H
#define REGEL_SUPPORT_CLOCK_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

namespace regel {

/// A monotonic time source plus the ability to wait against it.
class Clock {
public:
  virtual ~Clock() = default;

  /// Monotonic now in microseconds since an arbitrary (per-clock) epoch.
  virtual int64_t nowUs() const = 0;

  /// Waits on \p CV (with \p Lock held, as for condition_variable::wait)
  /// until \p Pred returns true or \p TimeoutMs of THIS clock's time
  /// passes. Returns Pred() at exit — exactly the contract of
  /// condition_variable::wait_for with a predicate. A non-positive
  /// timeout is a poll: Pred is evaluated once and the call returns.
  virtual bool waitFor(std::condition_variable &CV,
                       std::unique_lock<std::mutex> &Lock, int64_t TimeoutMs,
                       const std::function<bool()> &Pred) const = 0;

  double nowMs() const { return static_cast<double>(nowUs()) / 1000.0; }

  /// The process-wide production clock (a SteadyClock). Components take a
  /// shared_ptr so a job handle outliving its engine still has a valid
  /// time source.
  static const std::shared_ptr<const Clock> &steady();
};

/// std::chrono::steady_clock behind the seam. Stateless.
class SteadyClock : public Clock {
public:
  int64_t nowUs() const override;
  bool waitFor(std::condition_variable &CV, std::unique_lock<std::mutex> &Lock,
               int64_t TimeoutMs,
               const std::function<bool()> &Pred) const override;
};

/// Virtual time for tests: nowUs() moves only via advance/set. Thread-safe
/// (tests advance from one thread while workers and waiters read).
///
/// waitFor resolves its timeout in virtual time: the waiter re-checks the
/// virtual deadline on every wakeup and otherwise sleeps in short real
/// slices, so an advance from another thread is observed within ~a
/// millisecond of real time without any notification plumbing between the
/// clock and the (caller-owned) condition variable. The *outcome* — timed
/// out or predicate satisfied — depends only on virtual time and the
/// predicate, which is what makes tests deterministic.
///
/// The clock also notes which threads read it since the last advance, so
/// a test that pumps time while workers run can pace itself on their
/// progress (readersSinceAdvance) instead of outrunning a worker that is
/// between two deadline polls. The bookkeeping is relaxed, so the clock
/// orders no two readers and ThreadSanitizer still sees races between them.
class ManualClock : public Clock {
public:
  explicit ManualClock(int64_t StartUs = 0) : Now(StartUs) {}

  int64_t nowUs() const override;

  bool waitFor(std::condition_variable &CV, std::unique_lock<std::mutex> &Lock,
               int64_t TimeoutMs,
               const std::function<bool()> &Pred) const override;

  void advanceUs(int64_t Us) {
    Now.fetch_add(Us, std::memory_order_acq_rel);
    Epoch.fetch_add(1, std::memory_order_release);
  }
  void advanceMs(int64_t Ms) { advanceUs(Ms * 1000); }

  /// Distinct threads, the caller excluded, that read the clock since the
  /// last advance (so every such read returned the advanced time). Only
  /// the first 64 threads that ever read the clock are counted.
  unsigned readersSinceAdvance() const;

private:
  /// A reading thread (its process-wide number, 0 = free) and the epoch of
  /// its latest read. Slots are taken in order and never freed.
  struct ReaderSlot {
    std::atomic<uint64_t> Reader{0};
    std::atomic<uint64_t> Epoch{0};
  };

  std::atomic<int64_t> Now;
  std::atomic<uint64_t> Epoch{0}; ///< advances so far
  mutable std::array<ReaderSlot, 64> Readers;
};

} // namespace regel

#endif // REGEL_SUPPORT_CLOCK_H
