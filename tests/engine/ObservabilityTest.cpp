//===- tests/engine/ObservabilityTest.cpp ---------------------------------===//
//
// End-to-end observability through the engine on the virtual-clock seam:
// span timelines asserted to the exact microsecond under ManualClock (the
// test is the only source of time — zero sleeps), failure traces retained
// at a zero sample rate, the observability kill-switch, and the metrics
// exposition's histogram rows.
//
// Zero-worker engines make the timelines deterministic: a queued job runs
// only when the destructor drains it, so queue time is exactly the ticks
// this test advanced and exec time is exactly zero.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "regex/Parser.h"
#include "support/Clock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace regel;
using namespace regel::engine;

namespace {

/// A concrete-sketch probe that solves in a handful of pops.
JobRequest probeRequest() {
  JobRequest R;
  R.Sketches = {Sketch::concrete(parseRegex("Concat(<cap>,Repeat(<num>,2))"))};
  R.E.Pos = {"A12", "Z99"};
  R.E.Neg = {"12", "a12"};
  R.BudgetMs = 10000;
  return R;
}

EngineConfig manualConfig(const std::shared_ptr<ManualClock> &MC,
                          double SampleProb) {
  EngineConfig EC;
  EC.Threads = 0; // deterministic: tasks run only at destructor drain
  EC.CacheShards = 4;
  EC.TimeSource = MC;
  EC.Trace.SampleProb = SampleProb;
  return EC;
}

const obs::Span *findSpan(const std::vector<obs::Span> &Spans,
                          const std::string &Name) {
  auto It = std::find_if(Spans.begin(), Spans.end(),
                         [&](const obs::Span &S) { return S.Name == Name; });
  return It == Spans.end() ? nullptr : &*It;
}

} // namespace

TEST(SpanTimeline, QueueTimeIsExactVirtualTicks) {
  auto MC = std::make_shared<ManualClock>();
  std::shared_ptr<obs::Tracer> Tr;
  std::shared_ptr<obs::Registry> Reg;
  JobPtr J;
  {
    Engine Eng(manualConfig(MC, /*SampleProb=*/1.0));
    Tr = Eng.tracer();   // outlive the engine: traces are inspected after
    Reg = Eng.registry(); // the drain completes the job
    J = Eng.submit(probeRequest());
    EXPECT_FALSE(J->done());
    // The job sits queued for exactly 7ms of virtual time, then the
    // engine destructor drains it with the clock frozen: queue time 7ms
    // sharp, exec time zero.
    MC->advanceMs(7);
  }
  ASSERT_TRUE(J->done());
  const JobResult R = *J->waitFor(0);
  EXPECT_TRUE(R.solved());
  ASSERT_NE(R.TraceId, 0u) << "SampleProb=1 must retain the trace";

  auto Ctx = Tr->find(R.TraceId);
  ASSERT_NE(Ctx, nullptr);
  const std::vector<obs::Span> Spans = Ctx->spansCopy();

  const obs::Span *Submit = findSpan(Spans, "submit");
  ASSERT_NE(Submit, nullptr);
  EXPECT_EQ(Submit->StartUs, 0);
  EXPECT_EQ(Submit->DurUs, 0);

  const obs::Span *Queue = findSpan(Spans, "queue");
  ASSERT_NE(Queue, nullptr);
  EXPECT_EQ(Queue->StartUs, 0);
  EXPECT_EQ(Queue->DurUs, 7000) << "queue span must be the advanced ticks";

  const obs::Span *Exec = findSpan(Spans, "exec");
  ASSERT_NE(Exec, nullptr);
  EXPECT_EQ(Exec->StartUs, 7000) << "exec starts where queueing ended";
  EXPECT_EQ(Exec->DurUs, 0) << "the clock was frozen during the drain";

  const obs::Span *Job = findSpan(Spans, "job");
  ASSERT_NE(Job, nullptr);
  EXPECT_EQ(Job->StartUs, 0);
  EXPECT_EQ(Job->DurUs, 7000);

  const obs::Span *Task = findSpan(Spans, "task");
  ASSERT_NE(Task, nullptr) << "the sketch task must have recorded a span";
  EXPECT_EQ(Task->Tid, 1) << "rank 0 runs on trace lane 1";

  // The exported JSON carries the verdict and the same exact durations.
  const std::string Json = Ctx->toJson();
  EXPECT_NE(Json.find("\"verdict\":\"solved\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(Json.find("\"dur\":7000"), std::string::npos);

  // And the registry histograms saw the same numbers: one accepted
  // interactive job with 7000us queue / 0us exec / 7000us total.
  obs::HistogramSnapshot Q =
      Reg->histogramSnapshot("regel_job_queue_us", "pri=\"interactive\"");
  ASSERT_EQ(Q.Count, 1u);
  EXPECT_EQ(Q.percentileUs(1.0),
            obs::Histogram::bucketUpperUs(obs::Histogram::bucketFor(7000)));
  obs::HistogramSnapshot E =
      Reg->histogramSnapshot("regel_job_exec_us", "pri=\"interactive\"");
  ASSERT_EQ(E.Count, 1u);
  EXPECT_EQ(E.percentileUs(1.0), 0u) << "0us exec lands in the 0 singleton";
}

TEST(SpanTimeline, ExpiredInQueueTraceIsRetainedAtZeroSampleRate) {
  auto MC = std::make_shared<ManualClock>();
  Engine Eng(manualConfig(MC, /*SampleProb=*/0.0));
  JobRequest R = probeRequest();
  R.Sketches = {Sketch::unconstrained()};
  R.E.Pos = {"ab"};
  R.E.Neg = {"ba"};
  R.BudgetMs = 0;
  R.Synth.MaxPops = 20000; // bound the (never-reached) drain search
  R.ResidencyBudgetMs = 50;
  JobPtr J = Eng.submit(std::move(R));
  EXPECT_FALSE(J->done());

  MC->advanceMs(50); // the SLA lapses; the next sweep expires the job
  Eng.sweepExpiredQueued();
  ASSERT_TRUE(J->done());
  const JobResult Res = *J->waitFor(0);
  EXPECT_TRUE(Res.ResidencyExpired);
  // Failure traces survive a zero sample rate (AlwaysKeepFailures).
  ASSERT_NE(Res.TraceId, 0u);

  auto Ctx = Eng.tracer()->find(Res.TraceId);
  ASSERT_NE(Ctx, nullptr);
  const std::vector<obs::Span> Spans = Ctx->spansCopy();
  const obs::Span *Queue = findSpan(Spans, "queue");
  ASSERT_NE(Queue, nullptr);
  EXPECT_EQ(Queue->DurUs, 50000) << "expired at exactly the 50ms deadline";
  EXPECT_EQ(findSpan(Spans, "exec"), nullptr)
      << "a job expired in queue never has an exec span";
  EXPECT_NE(Ctx->toJson().find("\"verdict\":\"expired_in_queue\""),
            std::string::npos);
}

TEST(SpanTimeline, SuccessfulJobIsSampledOutAtZeroSampleRate) {
  auto MC = std::make_shared<ManualClock>();
  JobPtr J;
  {
    Engine Eng(manualConfig(MC, /*SampleProb=*/0.0));
    J = Eng.submit(probeRequest());
  }
  const JobResult R = *J->waitFor(0);
  EXPECT_TRUE(R.solved());
  EXPECT_EQ(R.TraceId, 0u)
      << "a dropped trace must never be advertised to the client";
}

TEST(Observability, KillSwitchDisablesTracesAndHistograms) {
  auto MC = std::make_shared<ManualClock>();
  EngineConfig EC = manualConfig(MC, /*SampleProb=*/1.0);
  EC.Observability = false;
  std::shared_ptr<obs::Registry> Reg;
  JobPtr J;
  std::string Text;
  {
    Engine Eng(EC);
    Reg = Eng.registry();
    J = Eng.submit(probeRequest());
    MC->advanceMs(3);
    Text = Eng.metricsText();
  }
  EXPECT_TRUE(J->waitFor(0)->solved());
  EXPECT_EQ(J->waitFor(0)->TraceId, 0u);
  // No per-job recording...
  EXPECT_EQ(
      Reg->histogramSnapshot("regel_job_queue_us", "pri=\"interactive\"")
          .Count,
      0u);
  // ...but the counter mirror still works: the exposition is never empty.
  EXPECT_NE(Text.find("regel_jobs_submitted_total 1"), std::string::npos);
}

TEST(Observability, MetricsTextCarriesCountersAndHistogramSeries) {
  // An expired-in-queue job completes while the engine is still alive
  // (the sweep completes it, no worker needed), so the exposition can be
  // rendered with a live latency sample in it: queue 25ms, exec 0.
  auto MC = std::make_shared<ManualClock>();
  Engine Eng(manualConfig(MC, /*SampleProb=*/1.0));
  JobRequest R;
  R.Sketches = {Sketch::unconstrained()};
  R.E.Pos = {"ab"};
  R.E.Neg = {"ba"};
  R.BudgetMs = 0;
  R.Synth.MaxPops = 20000;
  R.ResidencyBudgetMs = 25;
  JobPtr J = Eng.submit(std::move(R));
  MC->advanceMs(25);
  Eng.sweepExpiredQueued();
  ASSERT_TRUE(J->done());

  const std::string Text = Eng.metricsText();
  EXPECT_NE(Text.find("# TYPE regel_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("regel_jobs_submitted_total 1"), std::string::npos);
  EXPECT_NE(Text.find("regel_jobs_expired_in_queue_total 1"),
            std::string::npos);
  // The histogram series render in Prometheus shape: cumulative buckets
  // with labels, then _sum and _count rows.
  EXPECT_NE(Text.find("# TYPE regel_job_queue_us histogram"),
            std::string::npos);
  EXPECT_NE(Text.find("regel_job_queue_us_count{pri=\"interactive\"} 1"),
            std::string::npos);
  // And the exposition is federation-grade: absorbing it reproduces the
  // 25000us queue sample exactly.
  obs::Registry Fed;
  EXPECT_GT(Fed.absorbText(Text), 0u);
  obs::HistogramSnapshot Q =
      Fed.histogramSnapshot("regel_job_queue_us", "pri=\"interactive\"");
  ASSERT_EQ(Q.Count, 1u);
  EXPECT_EQ(Q.percentileUs(1.0),
            obs::Histogram::bucketUpperUs(obs::Histogram::bucketFor(25000)));
}

TEST(Observability, EveryMetricIsCataloguedInTheDocs) {
  // The catalog in docs/OBSERVABILITY.md is checked, not hand-synced:
  // every metric the exposition declares (`# TYPE <name> <type>`) must
  // have its own row `| `<name>` | <type> |`, and every row must name a
  // metric the engine exposes, so deleting a row or leaving a retired
  // series behind both fail.
  std::ifstream In(std::string(REGEL_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(In.good());
  std::set<std::string> Rows; // "<name> <type>" of each catalog row
  std::string Line;
  const std::string RowStart = "| `regel_";
  while (std::getline(In, Line)) {
    if (Line.rfind(RowStart, 0) != 0)
      continue;
    const size_t NameEnd = Line.find("` | ", 3);
    ASSERT_NE(NameEnd, std::string::npos) << Line;
    const size_t TypeEnd = Line.find(" |", NameEnd + 4);
    ASSERT_NE(TypeEnd, std::string::npos) << Line;
    Rows.insert(Line.substr(3, NameEnd - 3) + " " +
                Line.substr(NameEnd + 4, TypeEnd - NameEnd - 4));
  }

  Engine Eng(EngineConfig{0, 4, nullptr});
  std::istringstream Text(Eng.metricsText());
  std::set<std::string> Declared;
  const std::string Type = "# TYPE ";
  while (std::getline(Text, Line))
    if (Line.rfind(Type, 0) == 0)
      Declared.insert(Line.substr(Type.size()));
  for (const std::string &D : Declared)
    EXPECT_EQ(Rows.count(D), 1u)
        << D << " has no catalog row in docs/OBSERVABILITY.md";
  for (const std::string &R : Rows)
    EXPECT_EQ(Declared.count(R), 1u)
        << "docs/OBSERVABILITY.md catalogs " << R
        << ", which the engine does not expose";
  EXPECT_GE(Declared.size(), 40u);
}
