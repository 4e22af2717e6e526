//===- tests/obs/MetricsTest.cpp ------------------------------------------===//
//
// The histogram metrics registry: exact bucket placement on the log-linear
// layout, merge associativity (the property that makes federated
// percentiles equal locally-computed ones), overflow handling, and the
// render -> parse -> render identity of the text exposition.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

using namespace regel::obs;

//===----------------------------------------------------------------------===//
// Bucket layout.
//===----------------------------------------------------------------------===//

TEST(HistogramBuckets, SingletonBucketsForSmallValues) {
  // 0..7us are exact: one value per bucket, so percentiles over
  // sub-8us samples have zero error.
  for (uint64_t Us = 0; Us < 8; ++Us) {
    EXPECT_EQ(Histogram::bucketFor(Us), Us);
    EXPECT_EQ(Histogram::bucketUpperUs(static_cast<unsigned>(Us)), Us);
  }
}

TEST(HistogramBuckets, UpperBoundIsInBucketAndNextValueIsNot) {
  // bucketUpperUs is the inclusive top of its bucket: the bound itself
  // maps back to the bucket, the next integer to the next bucket. Walking
  // all buckets also proves the boundaries are strictly increasing.
  uint64_t PrevUpper = 0;
  for (unsigned I = 0; I < Histogram::OverflowBucket; ++I) {
    const uint64_t Upper = Histogram::bucketUpperUs(I);
    EXPECT_EQ(Histogram::bucketFor(Upper), I) << "bucket " << I;
    EXPECT_EQ(Histogram::bucketFor(Upper + 1), I + 1) << "bucket " << I;
    if (I)
      EXPECT_GT(Upper, PrevUpper);
    PrevUpper = Upper;
  }
}

TEST(HistogramBuckets, RelativeErrorBoundedByQuarter) {
  // Log-linear with 4 sub-buckets per octave: reporting the bucket upper
  // bound over-estimates by at most 25% (the sub-bucket width is a
  // quarter of the octave base).
  for (uint64_t Us = 8; Us < (uint64_t(1) << 30); Us = Us * 2 + Us / 3 + 1) {
    const uint64_t Upper = Histogram::bucketUpperUs(Histogram::bucketFor(Us));
    EXPECT_GE(Upper, Us);
    EXPECT_LE(static_cast<double>(Upper - Us), 0.25 * static_cast<double>(Us))
        << "value " << Us;
  }
}

TEST(HistogramBuckets, OverflowAtTwoToTheForty) {
  const uint64_t Limit = uint64_t(1) << 40;
  EXPECT_EQ(Histogram::bucketFor(Limit - 1), Histogram::OverflowBucket - 1);
  EXPECT_EQ(Histogram::bucketFor(Limit), Histogram::OverflowBucket);
  EXPECT_EQ(Histogram::bucketFor(UINT64_MAX), Histogram::OverflowBucket);
  EXPECT_EQ(Histogram::bucketUpperUs(Histogram::OverflowBucket), UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// Recording and percentiles.
//===----------------------------------------------------------------------===//

TEST(HistogramPercentile, EmptyIsZeroAndOverflowIsMax) {
  Histogram H;
  EXPECT_EQ(H.snapshot().percentileUs(0.5), 0u);
  H.record(uint64_t(1) << 41); // overflow bucket
  EXPECT_EQ(H.snapshot().percentileUs(0.5), UINT64_MAX);
}

TEST(HistogramPercentile, ExactForSingletonValues) {
  Histogram H;
  for (uint64_t Us = 0; Us < 8; ++Us)
    H.record(Us); // one sample per singleton bucket
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 8u);
  EXPECT_EQ(S.SumUs, 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7);
  // Rank ceil(Q*8): each eighth lands exactly on one singleton.
  EXPECT_EQ(S.percentileUs(0.125), 0u);
  EXPECT_EQ(S.percentileUs(0.5), 3u);
  EXPECT_EQ(S.percentileUs(1.0), 7u);
}

TEST(HistogramPercentile, ReportsBucketUpperBound) {
  Histogram H;
  const uint64_t Value = 7000; // a mid-octave value
  H.record(Value);
  const uint64_t Expected =
      Histogram::bucketUpperUs(Histogram::bucketFor(Value));
  EXPECT_EQ(H.snapshot().percentileUs(0.5), Expected);
  EXPECT_EQ(H.snapshot().percentileUs(1.0), Expected);
}

TEST(HistogramPercentile, RecordMsRoundsToMicroseconds) {
  Histogram H;
  H.recordMs(1.5); // 1500us
  EXPECT_EQ(H.snapshot().percentileUs(1.0),
            Histogram::bucketUpperUs(Histogram::bucketFor(1500)));
  Histogram Neg;
  Neg.recordMs(-3.0); // clamped to 0
  EXPECT_EQ(Neg.snapshot().percentileUs(1.0), 0u);
}

//===----------------------------------------------------------------------===//
// Merging.
//===----------------------------------------------------------------------===//

namespace {

HistogramSnapshot snapOf(const std::vector<uint64_t> &Values) {
  Histogram H;
  for (uint64_t V : Values)
    H.record(V);
  return H.snapshot();
}

} // namespace

TEST(HistogramMerge, MergeEqualsUnionOfSamples) {
  // The federation property: merging per-shard snapshots is
  // indistinguishable from having recorded every sample into one
  // histogram — same buckets, same count/sum, same percentiles.
  const std::vector<uint64_t> A = {1, 5, 900, 40000, 1u << 20};
  const std::vector<uint64_t> B = {2, 7, 7000, 7001, 1u << 25, 1u << 26};
  HistogramSnapshot SA = snapOf(A), SB = snapOf(B);
  SA.merge(SB);

  std::vector<uint64_t> Union = A;
  Union.insert(Union.end(), B.begin(), B.end());
  HistogramSnapshot SU = snapOf(Union);

  EXPECT_EQ(SA.Count, SU.Count);
  EXPECT_EQ(SA.SumUs, SU.SumUs);
  EXPECT_EQ(SA.Buckets, SU.Buckets);
  for (double Q : {0.25, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(SA.percentileUs(Q), SU.percentileUs(Q)) << "q " << Q;
}

TEST(HistogramMerge, Associative) {
  HistogramSnapshot A = snapOf({1, 100, 100000});
  HistogramSnapshot B = snapOf({7, 7});
  HistogramSnapshot C = snapOf({uint64_t(1) << 41, 3});

  // (A + B) + C
  HistogramSnapshot L = A;
  L.merge(B);
  L.merge(C);
  // A + (B + C)
  HistogramSnapshot RInner = B;
  RInner.merge(C);
  HistogramSnapshot R = A;
  R.merge(RInner);

  EXPECT_EQ(L.Count, R.Count);
  EXPECT_EQ(L.SumUs, R.SumUs);
  EXPECT_EQ(L.Buckets, R.Buckets);
}

TEST(HistogramMerge, MergeWithEmptyIsIdentity) {
  HistogramSnapshot A = snapOf({5, 5000});
  HistogramSnapshot Empty;
  HistogramSnapshot M = A;
  M.merge(Empty);
  EXPECT_EQ(M.Count, A.Count);
  EXPECT_EQ(M.Buckets, A.Buckets);
  // And the other direction: empty absorbing A equals A.
  HistogramSnapshot E2;
  E2.merge(A);
  EXPECT_EQ(E2.Count, A.Count);
  EXPECT_EQ(E2.Buckets, A.Buckets);
}

//===----------------------------------------------------------------------===//
// Registry: series identity, exposition round-trip, federation.
//===----------------------------------------------------------------------===//

TEST(Registry, SeriesAreKeyedByNameAndLabels) {
  Registry R;
  R.counter("c_total").add(1);
  R.counter("c_total", "pri=\"interactive\"").add(10);
  EXPECT_EQ(R.counter("c_total").value(), 1u);
  EXPECT_EQ(R.counter("c_total", "pri=\"interactive\"").value(), 10u);
  // Same key resolves to the same object (stable references).
  Counter &C1 = R.counter("c_total");
  Counter &C2 = R.counter("c_total");
  EXPECT_EQ(&C1, &C2);
}

TEST(Registry, RenderAbsorbRenderIsIdentity) {
  Registry A;
  A.counter("regel_jobs_total").add(42);
  A.counter("regel_jobs_total", "pri=\"batch\"").add(7);
  A.gauge("regel_queue_depth").set(-3);
  Histogram &H = A.histogram("regel_job_us", "pri=\"interactive\"");
  H.record(5);
  H.record(7000);
  H.record(uint64_t(1) << 41); // overflow must round-trip too

  const std::string Text = A.renderText();
  Registry B;
  const size_t Absorbed = B.absorbText(Text);
  EXPECT_EQ(Absorbed, 4u); // two counter series, one gauge, one histogram
  EXPECT_EQ(B.renderText(), Text);

  // The absorbed histogram is bit-equal to the original snapshot.
  HistogramSnapshot SA =
      A.histogramSnapshot("regel_job_us", "pri=\"interactive\"");
  HistogramSnapshot SB =
      B.histogramSnapshot("regel_job_us", "pri=\"interactive\"");
  EXPECT_EQ(SA.Count, SB.Count);
  EXPECT_EQ(SA.SumUs, SB.SumUs);
  EXPECT_EQ(SA.Buckets, SB.Buckets);
}

TEST(Registry, AbsorbTwiceDoublesCounts) {
  Registry A;
  A.counter("c_total").add(5);
  A.histogram("h_us").record(100);
  const std::string Text = A.renderText();

  Registry B;
  B.absorbText(Text);
  B.absorbText(Text);
  EXPECT_EQ(B.counter("c_total").value(), 10u);
  EXPECT_EQ(B.histogramSnapshot("h_us").Count, 2u);
}

TEST(Registry, AbsorbIgnoresGarbage) {
  Registry B;
  EXPECT_EQ(B.absorbText("this is not an exposition\nneither is this\n"), 0u);
  EXPECT_EQ(B.absorbText(""), 0u);
}

TEST(Registry, FederatedPercentilesMatchLocalMerge) {
  // Two "shards" record disjoint sample sets; a scratch registry absorbs
  // both expositions. Its percentiles must equal a single histogram fed
  // the union — what a scraper summing several expositions relies on.
  Registry S1, S2;
  std::vector<uint64_t> V1, V2, Union;
  for (uint64_t I = 0; I < 100; ++I)
    V1.push_back(I * 37 % 9000);
  for (uint64_t I = 0; I < 50; ++I)
    V2.push_back(100000 + I * 991);
  for (uint64_t V : V1)
    S1.histogram("lat_us").record(V);
  for (uint64_t V : V2)
    S2.histogram("lat_us").record(V);
  Union = V1;
  Union.insert(Union.end(), V2.begin(), V2.end());

  Registry Fed;
  Fed.absorbText(S1.renderText());
  Fed.absorbText(S2.renderText());
  HistogramSnapshot Got = Fed.histogramSnapshot("lat_us");
  HistogramSnapshot Want = snapOf(Union);
  EXPECT_EQ(Got.Count, Want.Count);
  EXPECT_EQ(Got.Buckets, Want.Buckets);
  for (double Q : {0.5, 0.9, 0.99})
    EXPECT_EQ(Got.percentileUs(Q), Want.percentileUs(Q)) << "q " << Q;
}

TEST(Registry, ConcurrentRecordingLosesNothing) {
  Registry R;
  Histogram &H = R.histogram("h_us");
  Counter &C = R.counter("c_total");
  constexpr int Threads = 4, PerThread = 10000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&H, &C] {
      for (int I = 0; I < PerThread; ++I) {
        H.record(static_cast<uint64_t>(I));
        C.add(1);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(H.snapshot().Count, uint64_t(Threads) * PerThread);
  EXPECT_EQ(C.value(), uint64_t(Threads) * PerThread);
}
