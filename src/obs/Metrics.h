//===- obs/Metrics.h - Histogram metrics registry ---------------*- C++ -*-===//
//
// Part of the Regel reproduction. The serving-side metrics layer: counters,
// gauges, and log-linear-bucket histograms behind a lock-sharded Registry,
// rendered as Prometheus-style text exposition and parseable back
// (Registry::absorbText), so a scraper can re-read and diff expositions.
//
// Two properties drive the histogram design:
//
//   * Fixed bucket boundaries. Every Histogram in every process uses the
//     same log-linear layout (exact singletons 0..7us, then 4 linear
//     sub-buckets per power-of-two octave up to 2^40us, then one overflow
//     bucket). Merging is element-wise addition, hence exactly associative:
//     merging per-shard snapshots (or absorbed expositions) in any order
//     yields the same buckets — and the same percentiles — as recording
//     the union of samples into one histogram.
//
//   * Integer-microsecond domain. Bucket bounds are exact integers, so the
//     text exposition round-trips without float drift: render -> parse ->
//     render is the identity, and a registry rebuilt from expositions is
//     bit-equal to a locally merged one.
//
// Percentiles are reported as the upper bound of the bucket containing the
// requested rank (a <= 25% relative over-estimate in the worst case; exact
// for values 0..7us and for values that are themselves bucket bounds).
// Time never enters this file: callers read the Clock seam and record
// elapsed microseconds, so ManualClock tests assert exact bucket placement.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_OBS_METRICS_H
#define REGEL_OBS_METRICS_H

#include "support/Mutex.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace regel {
namespace obs {

class Histogram;

/// A point-in-time copy of one histogram: plain integers, mergeable.
struct HistogramSnapshot {
  uint64_t Count = 0;
  uint64_t SumUs = 0;
  std::vector<uint64_t> Buckets; ///< Histogram::NumBuckets entries (or empty).

  /// Element-wise addition. Exactly associative and commutative because
  /// bucket boundaries are fixed.
  void merge(const HistogramSnapshot &Other);

  /// Upper bound (inclusive, in us) of the bucket holding the value of
  /// rank ceil(Q * Count). Q in [0, 1]. Returns 0 on an empty histogram
  /// and UINT64_MAX when the rank lands in the overflow bucket.
  uint64_t percentileUs(double Q) const;

  double meanUs() const {
    return Count ? static_cast<double>(SumUs) / static_cast<double>(Count) : 0;
  }
};

/// Log-linear histogram over integer microseconds. Thread-safe (relaxed
/// atomics; a snapshot is a consistent-enough point-in-time copy for
/// reporting). ~1.3 KB per instance.
class Histogram {
public:
  /// Values 0..7 get singleton buckets; octaves [2^3, 2^40) get
  /// SubBuckets linear sub-buckets each; >= 2^40 us (~12.7 days)
  /// overflows.
  static constexpr unsigned FirstOctave = 3;
  static constexpr unsigned LastOctave = 40;
  static constexpr unsigned SubBuckets = 4;
  static constexpr unsigned NumBuckets =
      8 + (LastOctave - FirstOctave) * SubBuckets + 1;
  static constexpr unsigned OverflowBucket = NumBuckets - 1;

  /// Index of the bucket containing \p Us.
  static unsigned bucketFor(uint64_t Us);

  /// Largest value (us) contained in bucket \p Index; UINT64_MAX for the
  /// overflow bucket. bucketFor(bucketUpperUs(I)) == I for every I.
  static uint64_t bucketUpperUs(unsigned Index);

  void record(uint64_t Us) {
    Bkts[bucketFor(Us)].fetch_add(1, std::memory_order_relaxed);
    Cnt.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(Us, std::memory_order_relaxed);
  }
  void recordMs(double Ms) {
    record(Ms <= 0 ? 0 : static_cast<uint64_t>(Ms * 1000.0 + 0.5));
  }

  /// Bulk-add a snapshot (used by exposition parsing).
  void absorb(const HistogramSnapshot &S);

  HistogramSnapshot snapshot() const;

private:
  std::atomic<uint64_t> Cnt{0};
  std::atomic<uint64_t> Sum{0};
  std::array<std::atomic<uint64_t>, NumBuckets> Bkts{};
};

/// Monotonic counter. set() exists for mirroring an external monotonic
/// source (the engine's relaxed-atomic stats) at exposition time.
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  void set(uint64_t N) { V.store(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Point-in-time signed value.
class Gauge {
public:
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  void add(int64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Name+labels-keyed store of counters/gauges/histograms. Lookup is
/// lock-sharded by key hash; returned references are stable for the
/// registry's lifetime, so hot paths resolve once and then touch only
/// the metric's own atomics.
///
/// Labels are a pre-rendered comma-joined list of Prometheus pairs, e.g.
/// `pri="interactive"` — empty for an unlabeled series. The registry does
/// not parse label semantics; it only keys and prints them.
class Registry {
public:
  explicit Registry(unsigned ShardCount = 8);

  Counter &counter(const std::string &Name, const std::string &Labels = "");
  Gauge &gauge(const std::string &Name, const std::string &Labels = "");
  Histogram &histogram(const std::string &Name,
                       const std::string &Labels = "");

  /// Prometheus-style text exposition: `# TYPE` per metric name, series
  /// sorted by (name, labels), histogram buckets cumulative with empty
  /// buckets elided (the `+Inf` bucket always present). Deterministic.
  std::string renderText() const;

  /// Parses a renderText()-format exposition and adds it into this
  /// registry: counters and gauges sum (a summed gauge is only an
  /// approximation — document per-metric whether the sum is meaningful),
  /// histograms merge bucket-wise. Series whose buckets do not match the
  /// fixed layout are skipped. Returns the number of series absorbed.
  size_t absorbText(const std::string &Text);

  /// Point-in-time copy of one histogram series (empty snapshot if the
  /// series does not exist).
  HistogramSnapshot histogramSnapshot(const std::string &Name,
                                      const std::string &Labels = "") const;

private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Shard {
    mutable Mutex M;
    // The maps are guarded; the metric objects behind the unique_ptrs are
    // internally atomic, so returned references escape the lock by design.
    std::map<std::pair<std::string, std::string>, std::unique_ptr<Counter>>
        Counters REGEL_GUARDED_BY(M);
    std::map<std::pair<std::string, std::string>, std::unique_ptr<Gauge>>
        Gauges REGEL_GUARDED_BY(M);
    std::map<std::pair<std::string, std::string>, std::unique_ptr<Histogram>>
        Histograms REGEL_GUARDED_BY(M);
  };

  Shard &shardFor(const std::string &Name, const std::string &Labels);
  const Shard &shardFor(const std::string &Name,
                        const std::string &Labels) const;

  std::vector<std::unique_ptr<Shard>> Shards;
};

/// Escapes a string for inclusion in a JSON string literal (no quotes
/// added). Shared by the trace exporter and stats JSON emitters.
std::string jsonEscape(const std::string &S);

} // namespace obs
} // namespace regel

#endif // REGEL_OBS_METRICS_H
