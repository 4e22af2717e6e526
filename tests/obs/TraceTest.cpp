//===- tests/obs/TraceTest.cpp --------------------------------------------===//
//
// The span tracer: deterministic sampling, failure-priority retention,
// bounded-ring eviction, per-trace span caps, per-tracer sequential ids,
// and the trace_event JSON export. No clocks here — span
// timestamps are caller-provided integers.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <string>

using namespace regel::obs;

namespace {

Tracer::Config keepAll() {
  Tracer::Config C;
  C.SampleProb = 1.0;
  return C;
}

Tracer::Config keepNone() {
  Tracer::Config C;
  C.SampleProb = 0.0;
  return C;
}

} // namespace

TEST(Tracer, SampleProbOneKeepsEverything) {
  Tracer T(keepAll());
  for (int I = 0; I < 10; ++I) {
    auto Ctx = T.begin();
    EXPECT_TRUE(Ctx->sampled());
    EXPECT_TRUE(T.finish(Ctx, /*ForceKeep=*/false));
  }
  EXPECT_EQ(T.retainedCount(), 10u);
}

TEST(Tracer, SampleProbZeroDropsSuccessesButKeepsFailures) {
  Tracer T(keepNone());
  auto Success = T.begin();
  EXPECT_FALSE(Success->sampled());
  EXPECT_FALSE(T.finish(Success, /*ForceKeep=*/false));
  EXPECT_EQ(T.retainedCount(), 0u);
  EXPECT_EQ(T.traceJson(Success->id()), "");

  // The trace you actually need — a failed job — survives a zero sample
  // rate because AlwaysKeepFailures defaults on.
  auto Failure = T.begin();
  EXPECT_TRUE(T.finish(Failure, /*ForceKeep=*/true));
  EXPECT_EQ(T.retainedCount(), 1u);
  EXPECT_NE(T.traceJson(Failure->id()), "");
}

TEST(Tracer, AlwaysKeepFailuresOffDropsForcedTraces) {
  Tracer::Config C = keepNone();
  C.AlwaysKeepFailures = false;
  Tracer T(C);
  EXPECT_FALSE(T.finish(T.begin(), /*ForceKeep=*/true));
  EXPECT_EQ(T.retainedCount(), 0u);
}

TEST(Tracer, RingEvictsOldestFirst) {
  Tracer::Config C = keepAll();
  C.RingCapacity = 3;
  Tracer T(C);
  uint64_t Ids[5];
  for (int I = 0; I < 5; ++I) {
    auto Ctx = T.begin();
    Ids[I] = Ctx->id();
    EXPECT_TRUE(T.finish(Ctx, false));
  }
  EXPECT_EQ(T.retainedCount(), 3u);
  EXPECT_EQ(T.evictedCount(), 2u);
  // FIFO: the two oldest are gone, the three newest resolvable.
  EXPECT_EQ(T.find(Ids[0]), nullptr);
  EXPECT_EQ(T.find(Ids[1]), nullptr);
  for (int I = 2; I < 5; ++I)
    EXPECT_NE(T.find(Ids[I]), nullptr) << "id index " << I;
}

TEST(Tracer, IdsStartAtOneAndSamplingRepeatsAcrossTracers) {
  Tracer A(keepAll());
  Tracer B(keepAll());
  for (uint64_t I = 1; I <= 4; ++I)
    EXPECT_EQ(A.begin()->id(), I);
  EXPECT_EQ(B.begin()->id(), 1u) << "ids are per tracer, not per process";

  // Sampling is a pure function of the tracer's own sequence, so two
  // fresh tracers with the same config keep the same traces.
  Tracer::Config C;
  C.SampleProb = 0.5;
  Tracer X(C), Y(C);
  std::string PX, PY;
  for (int I = 0; I < 64; ++I) {
    PX += X.begin()->sampled() ? '1' : '0';
    PY += Y.begin()->sampled() ? '1' : '0';
  }
  EXPECT_EQ(PX, PY);
  EXPECT_NE(PX.find('1'), std::string::npos);
  EXPECT_NE(PX.find('0'), std::string::npos);
}

TEST(TraceContext, SpanCapDropsAndCounts) {
  TraceContext Ctx(/*Id=*/1, /*Sampled=*/true, /*MaxSpans=*/2);
  Ctx.span("a", "job", 0, 10);
  Ctx.span("b", "job", 10, 10);
  Ctx.span("c", "job", 20, 10); // over the cap
  EXPECT_EQ(Ctx.spansCopy().size(), 2u);
  EXPECT_EQ(Ctx.droppedSpans(), 1u);
}

TEST(TraceContext, EnvelopeSpansBypassTheCap) {
  // A long search fills the cap with detail spans (SMT inference calls)
  // BEFORE completion records the job envelope. The envelope —
  // the spans a slow-job investigation reads first — must still land.
  TraceContext Ctx(/*Id=*/1, /*Sampled=*/true, /*MaxSpans=*/4);
  for (int I = 0; I < 10; ++I)
    Ctx.span("smt_infer", "smt", I * 10, 5, /*Tid=*/1);
  Ctx.spanEnvelope("queue", "job", 0, 30);
  Ctx.spanEnvelope("exec", "job", 30, 70);
  Ctx.spanEnvelope("job", "job", 0, 100);

  const auto Spans = Ctx.spansCopy();
  EXPECT_EQ(Spans.size(), 7u) << "4 capped detail + 3 uncapped envelope";
  EXPECT_EQ(Ctx.droppedSpans(), 6u) << "only detail spans are dropped";
  const std::string J = Ctx.toJson();
  EXPECT_NE(J.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"exec\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"job\""), std::string::npos);
}

TEST(TraceContext, JsonCarriesSpansVerdictAndDropCount) {
  TraceContext Ctx(/*Id=*/77, /*Sampled=*/true, /*MaxSpans=*/8);
  Span S;
  S.Name = "queue";
  S.Cat = "job";
  S.StartUs = 100;
  S.DurUs = 250;
  S.Args.push_back({"pri", "interactive"});
  Ctx.span(std::move(S));
  Ctx.setVerdict("solved");

  const std::string J = Ctx.toJson();
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(J.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(J.find("\"dur\":250"), std::string::npos);
  EXPECT_NE(J.find("\"pri\":\"interactive\""), std::string::npos);
  EXPECT_NE(J.find("\"trace_id\":\"77\""), std::string::npos);
  EXPECT_NE(J.find("\"verdict\":\"solved\""), std::string::npos);
}

TEST(TraceContext, JsonEscapesHostileStrings) {
  TraceContext Ctx(/*Id=*/1, true, 8);
  Span S;
  S.Name = "we\"ird\n";
  S.Cat = "job";
  Ctx.span(std::move(S));
  const std::string J = Ctx.toJson();
  EXPECT_EQ(J.find("we\"ird"), std::string::npos) << "quote not escaped";
  EXPECT_NE(J.find("we\\\"ird\\n"), std::string::npos);
}

TEST(Tracer, FindReturnsNewestOnDuplicateRetention) {
  // The same context finished twice (cannot happen in the engine, but the
  // ring must stay well-defined): find resolves to a live entry.
  Tracer T(keepAll());
  auto Ctx = T.begin();
  EXPECT_TRUE(T.finish(Ctx, false));
  EXPECT_TRUE(T.finish(Ctx, false));
  EXPECT_EQ(T.find(Ctx->id()), Ctx);
}
