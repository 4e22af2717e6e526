//===- tests/service/ProtocolTest.cpp -------------------------------------===//
//
// The versioned wire codec: round-trips for every message type in both
// versions, byte-exactness of the v1 responses the pre-extraction server
// emitted (the compatibility contract), and reject-without-crash on
// truncated / oversized / garbage input — a fuzz-style table plus seeded
// random bytes through both decoders.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "sketch/SketchParser.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace regel;
using namespace regel::protocol;

namespace {

Request roundTripRequest(const Request &In, Version V) {
  std::string Wire = encodeRequest(In, V);
  EXPECT_FALSE(Wire.empty()) << "kind not encodable in this version";
  Request Out;
  EXPECT_EQ(decodeRequest(Wire, Out), ErrorCode::None) << Wire;
  EXPECT_EQ(Out.V, V) << Wire;
  return Out;
}

Response roundTripResponse(const Response &In, Version V) {
  std::string Wire = encodeResponse(In, V);
  EXPECT_FALSE(Wire.empty()) << "kind not encodable in this version";
  Response Out;
  EXPECT_EQ(decodeResponse(Wire, V, Out), ErrorCode::None) << Wire;
  return Out;
}

} // namespace

TEST(ProtocolEscape, RoundTripsHostileBytes) {
  const std::string Hostile =
      "a b=c%d\ne\tf\rg\x01h\x7f\xffi   j==%%20";
  std::string Escaped = escapeValue(Hostile);
  // No byte that could confuse tokenization survives escaping.
  EXPECT_EQ(Escaped.find(' '), std::string::npos);
  EXPECT_EQ(Escaped.find('\n'), std::string::npos);
  EXPECT_EQ(Escaped.find('='), std::string::npos);
  std::string Back;
  ASSERT_TRUE(unescapeValue(Escaped, Back));
  EXPECT_EQ(Back, Hostile);
}

TEST(ProtocolEscape, RejectsMalformedEscapes) {
  std::string Out;
  EXPECT_FALSE(unescapeValue("%", Out));
  EXPECT_FALSE(unescapeValue("%2", Out));
  EXPECT_FALSE(unescapeValue("%zz", Out));
  EXPECT_FALSE(unescapeValue("a b", Out)); // raw space in a value
}

TEST(ProtocolRequest, RoundTripV1EveryKind) {
  {
    Request R;
    R.K = Request::Kind::Desc;
    R.Text = "a capital letter followed by 2 digits";
    Request Out = roundTripRequest(R, Version::V1);
    EXPECT_EQ(Out.K, Request::Kind::Desc);
    EXPECT_EQ(Out.Text, R.Text);
  }
  for (Request::Kind K : {Request::Kind::Pos, Request::Kind::Neg}) {
    Request R;
    R.K = K;
    R.Text = "A12";
    Request Out = roundTripRequest(R, Version::V1);
    EXPECT_EQ(Out.K, K);
    EXPECT_EQ(Out.Text, "A12");
  }
  for (Request::Kind K :
       {Request::Kind::TopK, Request::Kind::Budget, Request::Kind::Sla}) {
    Request R;
    R.K = K;
    R.Int = 1500;
    Request Out = roundTripRequest(R, Version::V1);
    EXPECT_EQ(Out.K, K);
    EXPECT_EQ(Out.Int, 1500);
  }
  {
    Request R;
    R.K = Request::Kind::Priority;
    R.Pri = engine::Priority::Batch;
    Request Out = roundTripRequest(R, Version::V1);
    EXPECT_EQ(Out.K, Request::Kind::Priority);
    EXPECT_EQ(Out.Pri, engine::Priority::Batch);
  }
  for (Request::Kind K :
       {Request::Kind::Help, Request::Kind::Clear, Request::Kind::Solve,
        Request::Kind::Stats, Request::Kind::Quit}) {
    Request R;
    R.K = K;
    EXPECT_EQ(roundTripRequest(R, Version::V1).K, K);
  }
}

TEST(ProtocolRequest, RoundTripV2Submit) {
  Request R;
  R.K = Request::Kind::Submit;
  R.Id = 42;
  R.Text = "numbers separated by commas, then a % sign";
  R.Sketches = {"Concat(<cap>,Repeat(<num>,2))", "?{<num>}"};
  R.Pos = {"A12", "Z 99", "with=equals", "100%"};
  R.Neg = {"", "12"};
  R.TopK = 3;
  R.BudgetMs = 2500;
  R.PerSketchBudgetMs = 400;
  R.SlaMs = 5000;
  R.Pri = engine::Priority::Background;
  R.HasPri = true;
  R.MaxPops = 12345;
  R.Deterministic = true;
  R.HasDet = true;
  R.Tag = "bench/router pass-1";

  Request Out = roundTripRequest(R, Version::V2);
  EXPECT_EQ(Out.K, Request::Kind::Submit);
  EXPECT_EQ(Out.Id, 42u);
  EXPECT_EQ(Out.Text, R.Text);
  EXPECT_EQ(Out.Sketches, R.Sketches);
  EXPECT_EQ(Out.Pos, R.Pos);
  EXPECT_EQ(Out.Neg, R.Neg);
  EXPECT_EQ(Out.TopK, 3u);
  EXPECT_EQ(Out.BudgetMs, 2500);
  EXPECT_EQ(Out.PerSketchBudgetMs, 400);
  EXPECT_EQ(Out.SlaMs, 5000);
  ASSERT_TRUE(Out.HasPri);
  EXPECT_EQ(Out.Pri, engine::Priority::Background);
  EXPECT_EQ(Out.MaxPops, 12345u);
  ASSERT_TRUE(Out.HasDet);
  EXPECT_TRUE(Out.Deterministic);
  EXPECT_EQ(Out.Tag, R.Tag);

  // det=0 is distinct from det-absent (absent inherits server default).
  R.Deterministic = false; // still HasDet
  Out = roundTripRequest(R, Version::V2);
  ASSERT_TRUE(Out.HasDet);
  EXPECT_FALSE(Out.Deterministic);
  Request Minimal;
  Minimal.K = Request::Kind::Submit;
  Minimal.Id = 1;
  Minimal.Pos = {"x"};
  Out = roundTripRequest(Minimal, Version::V2);
  EXPECT_FALSE(Out.HasDet);
  EXPECT_EQ(Out.TopK, 0u);   // unset: server default applies
  EXPECT_EQ(Out.SlaMs, -1);  // unset: server default applies
}

TEST(ProtocolRequest, RoundTripV2CancelStatsHealth) {
  {
    Request R;
    R.K = Request::Kind::Cancel;
    R.Id = 7;
    Request Out = roundTripRequest(R, Version::V2);
    EXPECT_EQ(Out.K, Request::Kind::Cancel);
    EXPECT_EQ(Out.Id, 7u);
  }
  for (Request::Kind K : {Request::Kind::Stats, Request::Kind::Health}) {
    Request R;
    R.K = K;
    EXPECT_EQ(roundTripRequest(R, Version::V2).K, K);
  }
}

TEST(ProtocolRequest, RoundTripV2MetricsAndTrace) {
  {
    Request R;
    R.K = Request::Kind::Metrics;
    EXPECT_EQ(roundTripRequest(R, Version::V2).K, Request::Kind::Metrics);
  }
  {
    Request R;
    R.K = Request::Kind::Trace;
    R.Id = 0x100000001ull; // block-allocated ids use the full uint64 range
    Request Out = roundTripRequest(R, Version::V2);
    EXPECT_EQ(Out.K, Request::Kind::Trace);
    EXPECT_EQ(Out.Id, R.Id);
  }
  // Telemetry is v2-only. v1 has no bytes for these kinds in either
  // direction — its wire format is frozen — and a v1 "metrics" line is
  // what it always was: an unknown command.
  Request M;
  M.K = Request::Kind::Metrics;
  EXPECT_EQ(encodeRequest(M, Version::V1), "");
  Request T;
  T.K = Request::Kind::Trace;
  T.Id = 1;
  EXPECT_EQ(encodeRequest(T, Version::V1), "");
  Request Out;
  EXPECT_EQ(decodeRequest("metrics", Out), ErrorCode::UnknownCommand);
  EXPECT_EQ(decodeRequest("trace 3", Out), ErrorCode::UnknownCommand);
}

TEST(ProtocolRequest, RetiredDfaFramesDecodeToErrors) {
  // The v2 `dfa get/put/stats` frames of the removed DFA tier are no
  // longer part of the protocol: each decodes to an error verdict the
  // server answers with `v2 error`, whatever its payload.
  Request Out;
  for (const std::string &Line :
       {std::string("v2 dfa get key=Concat(<cap>%2CRepeat(<num>%2C2))"),
        std::string("v2 dfa put key=k blob=%00%01%ff"),
        std::string("v2 dfa stats"), std::string("v2 dfa"),
        "v2 dfa put key=k blob=" + std::string(40000, 'a')}) {
    Out = Request();
    EXPECT_EQ(decodeRequest(Line, Out), ErrorCode::UnknownCommand) << Line;
    EXPECT_EQ(Out.Text, "dfa") << Line;
  }
  // The tier's reply frame is no longer a response either.
  Response R;
  EXPECT_EQ(decodeResponse("v2 dfa found=1 key=k blob=aa", Version::V2, R),
            ErrorCode::Malformed);
}

TEST(ProtocolResponse, RetiredUnavailableCodeDecodesToAnError) {
  // No server in the tree has emitted `unavailable` since the DFA tier
  // was removed, so it is no longer part of the taxonomy.
  ErrorCode E = ErrorCode::None;
  EXPECT_FALSE(parseErrorCode("unavailable", E));
  Response R;
  EXPECT_NE(decodeResponse("v2 error code=unavailable msg=x", Version::V2, R),
            ErrorCode::None);
  // Every remaining code still round-trips through its wire name.
  for (ErrorCode Code :
       {ErrorCode::UnknownCommand, ErrorCode::UnknownPriority,
        ErrorCode::BadArgument, ErrorCode::NothingToSolve, ErrorCode::Busy,
        ErrorCode::ServerFull, ErrorCode::LineTooLong, ErrorCode::Malformed,
        ErrorCode::Oversized, ErrorCode::DuplicateId, ErrorCode::UnknownId}) {
    ASSERT_TRUE(parseErrorCode(errorCodeName(Code), E)) << errorCodeName(Code);
    EXPECT_EQ(E, Code);
  }
}

TEST(ProtocolResponse, RoundTripV1EveryKind) {
  for (Response::Kind K :
       {Response::Kind::Greeting, Response::Kind::Ok, Response::Kind::Bye,
        Response::Kind::Help}) {
    Response R;
    R.K = K;
    EXPECT_EQ(roundTripResponse(R, Version::V1).K, K);
  }
  {
    Response R;
    R.K = Response::Kind::Queued;
    R.Id = 9;
    Response Out = roundTripResponse(R, Version::V1);
    EXPECT_EQ(Out.K, Response::Kind::Queued);
    EXPECT_EQ(Out.Id, 9u);
  }
  {
    Response R;
    R.K = Response::Kind::Answer;
    R.Id = 9;
    R.Detail = "Concat(<cap>,Repeat(<num>,2))";
    Response Out = roundTripResponse(R, Version::V1);
    EXPECT_EQ(Out.K, Response::Kind::Answer);
    EXPECT_EQ(Out.Id, 9u);
    EXPECT_EQ(Out.Detail, R.Detail);
  }
  {
    Response R;
    R.K = Response::Kind::Done;
    R.Id = 9;
    R.Status = "solved";
    R.TotalMs = 125.0;
    R.ExecMs = 124.8;
    Response Out = roundTripResponse(R, Version::V1);
    EXPECT_EQ(Out.K, Response::Kind::Done);
    EXPECT_EQ(Out.Id, 9u);
    EXPECT_EQ(Out.Status, "solved");
    EXPECT_NEAR(Out.TotalMs, 125.0, 0.05);
    EXPECT_NEAR(Out.ExecMs, 124.8, 0.05);
  }
  {
    Response R;
    R.K = Response::Kind::Stats;
    R.Detail = "{\"jobs\":{\"submitted\":3}}";
    Response Out = roundTripResponse(R, Version::V1);
    EXPECT_EQ(Out.K, Response::Kind::Stats);
    EXPECT_EQ(Out.Detail, R.Detail);
  }
  // The taxonomy errors recover their code from the historical text.
  for (ErrorCode E :
       {ErrorCode::NothingToSolve, ErrorCode::Busy, ErrorCode::ServerFull,
        ErrorCode::LineTooLong}) {
    Response R = Response();
    R.K = Response::Kind::Error;
    R.Err = E;
    Response Out = roundTripResponse(R, Version::V1);
    EXPECT_EQ(Out.K, Response::Kind::Error);
    EXPECT_EQ(Out.Err, E);
  }
  {
    Response R;
    R.K = Response::Kind::Error;
    R.Err = ErrorCode::UnknownCommand;
    R.Detail = "bogus";
    Response Out = roundTripResponse(R, Version::V1);
    EXPECT_EQ(Out.Err, ErrorCode::UnknownCommand);
    EXPECT_EQ(Out.Detail, "bogus");
  }
}

TEST(ProtocolResponse, V1BytesAreTheHistoricalOnes) {
  // The compatibility contract: these exact bytes are what pre-service
  // servers emitted, and what the unchanged server suite asserts on.
  Response Done;
  Done.K = Response::Kind::Done;
  Done.Id = 3;
  Done.Status = "solved";
  Done.TotalMs = 125.0;
  Done.ExecMs = 124.75;
  EXPECT_EQ(encodeResponse(Done, Version::V1),
            "done 3 solved total_ms=125.0 exec_ms=124.8");

  Response Q;
  Q.K = Response::Kind::Queued;
  Q.Id = 11;
  EXPECT_EQ(encodeResponse(Q, Version::V1), "queued 11");

  Response A;
  A.K = Response::Kind::Answer;
  A.Id = 11;
  A.Detail = "Repeat(<num>,2)";
  EXPECT_EQ(encodeResponse(A, Version::V1), "answer 11 Repeat(<num>,2)");

  Response G;
  G.K = Response::Kind::Greeting;
  EXPECT_EQ(encodeResponse(G, Version::V1),
            "regel ready; 'help' lists commands");

  Response E;
  E.K = Response::Kind::Error;
  E.Err = ErrorCode::UnknownCommand;
  E.Detail = "frobnicate";
  EXPECT_EQ(encodeResponse(E, Version::V1),
            "error unknown command 'frobnicate'");
  E.Err = ErrorCode::NothingToSolve;
  E.Detail.clear();
  EXPECT_EQ(encodeResponse(E, Version::V1),
            "error nothing to solve: give desc and/or examples");
  E.Err = ErrorCode::Busy;
  EXPECT_EQ(encodeResponse(E, Version::V1), "error busy");
}

TEST(ProtocolResponse, RoundTripV2EveryKind) {
  {
    Response R;
    R.K = Response::Kind::Ok;
    EXPECT_EQ(roundTripResponse(R, Version::V2).K, Response::Kind::Ok);
  }
  {
    Response R;
    R.K = Response::Kind::Queued;
    R.Id = 77;
    EXPECT_EQ(roundTripResponse(R, Version::V2).Id, 77u);
  }
  {
    Response R;
    R.K = Response::Kind::Answer;
    R.Id = 77;
    R.Rank = 4;
    R.Detail = "Or(<num>, <let>)"; // space must survive escaping
    Response Out = roundTripResponse(R, Version::V2);
    EXPECT_EQ(Out.Rank, 4u);
    EXPECT_EQ(Out.Detail, R.Detail);
  }
  {
    Response R;
    R.K = Response::Kind::Done;
    R.Id = 77;
    R.Status = "expired";
    R.TotalMs = 250.2;
    R.ExecMs = 0.0;
    R.QueueMs = 250.2;
    R.Answers = 0;
    Response Out = roundTripResponse(R, Version::V2);
    EXPECT_EQ(Out.Status, "expired");
    EXPECT_NEAR(Out.QueueMs, 250.2, 0.05);
    EXPECT_EQ(Out.Answers, 0u);
  }
  {
    Response R;
    R.K = Response::Kind::Error;
    R.Err = ErrorCode::DuplicateId;
    R.Detail = "id 7 in flight";
    Response Out = roundTripResponse(R, Version::V2);
    EXPECT_EQ(Out.Err, ErrorCode::DuplicateId);
    EXPECT_EQ(Out.Detail, "id 7 in flight");
    EXPECT_EQ(Out.Id, 0u); // no id attached: a connection-level error
    // Submit-context errors echo the job id so clients can fail exactly
    // that ticket.
    R.Err = ErrorCode::Busy;
    R.Id = 7;
    Out = roundTripResponse(R, Version::V2);
    EXPECT_EQ(Out.Err, ErrorCode::Busy);
    EXPECT_EQ(Out.Id, 7u);
  }
  {
    Response R;
    R.K = Response::Kind::Stats;
    R.Detail = "{\"a\": [1, 2]}";
    EXPECT_EQ(roundTripResponse(R, Version::V2).Detail, R.Detail);
  }
  {
    Response R;
    R.K = Response::Kind::Health;
    R.Healthy = true;
    R.QueueDepth = 17;
    R.Workers = 4;
    R.EstWaitMs = 321.5;
    R.NextDeadlineMs = 88;
    Response Out = roundTripResponse(R, Version::V2);
    EXPECT_TRUE(Out.Healthy);
    EXPECT_EQ(Out.QueueDepth, 17u);
    EXPECT_EQ(Out.Workers, 4u);
    EXPECT_NEAR(Out.EstWaitMs, 321.5, 0.05);
    EXPECT_EQ(Out.NextDeadlineMs, 88);
    R.NextDeadlineMs = -1;
    EXPECT_EQ(roundTripResponse(R, Version::V2).NextDeadlineMs, -1);
  }
}

TEST(ProtocolResponse, RoundTripV2MetricsTraceAndDoneTraceId) {
  {
    Response R;
    R.K = Response::Kind::Metrics;
    R.Detail = "# TYPE regel_jobs_total counter\nregel_jobs_total 3\n";
    Response Out = roundTripResponse(R, Version::V2);
    EXPECT_EQ(Out.K, Response::Kind::Metrics);
    EXPECT_EQ(Out.Detail, R.Detail) << "newlines must survive escaping";
  }
  {
    Response R;
    R.K = Response::Kind::Trace;
    R.Id = 42;
    R.Detail = "{\"traceEvents\":[{\"name\":\"queue\"}]}";
    Response Out = roundTripResponse(R, Version::V2);
    EXPECT_EQ(Out.K, Response::Kind::Trace);
    EXPECT_EQ(Out.Id, 42u);
    EXPECT_EQ(Out.Detail, R.Detail);
    // Unknown ids answer with an empty json, not an error (an error frame
    // carries a ticket id — a trace id in that field could fail an
    // innocent in-flight job on the client). The empty form round-trips.
    R.Detail.clear();
    Out = roundTripResponse(R, Version::V2);
    EXPECT_EQ(Out.Id, 42u);
    EXPECT_EQ(Out.Detail, "");
  }
  {
    Response R;
    R.K = Response::Kind::Done;
    R.Id = 9;
    R.Status = "solved";
    R.TotalMs = 1.0;
    R.ExecMs = 1.0;
    R.TraceId = 0x100000007ull;
    Response Out = roundTripResponse(R, Version::V2);
    EXPECT_EQ(Out.TraceId, R.TraceId);
    // v1 done is byte-frozen: no trace key ever appears.
    EXPECT_EQ(encodeResponse(R, Version::V1).find("trace"),
              std::string::npos);
    // TraceId 0 means "not retained": v2 omits the key entirely, and the
    // decoder leaves the field at its 0 default.
    R.TraceId = 0;
    EXPECT_EQ(encodeResponse(R, Version::V2).find("trace="),
              std::string::npos);
    EXPECT_EQ(roundTripResponse(R, Version::V2).TraceId, 0u);
  }
  // v1 cannot carry the new response kinds at all.
  Response M;
  M.K = Response::Kind::Metrics;
  EXPECT_EQ(encodeResponse(M, Version::V1), "");
  Response T;
  T.K = Response::Kind::Trace;
  T.Id = 1;
  EXPECT_EQ(encodeResponse(T, Version::V1), "");
}

TEST(ProtocolVerdicts, NamesRoundTripThroughFlags) {
  engine::JobResult R;
  EXPECT_STREQ(verdictName(R), "nosolution");
  R.DeadlineExpired = true;
  EXPECT_STREQ(verdictName(R), "deadline");
  R.ResidencyExpired = true;
  EXPECT_STREQ(verdictName(R), "expired");
  R.ShedOnArrival = true;
  EXPECT_STREQ(verdictName(R), "shed");
  R.Rejected = true;
  EXPECT_STREQ(verdictName(R), "rejected");

  for (const char *Name :
       {"rejected", "shed", "expired", "deadline", "nosolution", "solved"}) {
    engine::JobResult Out;
    EXPECT_TRUE(applyVerdict(Name, Out)) << Name;
    if (std::string(Name) != "solved" && std::string(Name) != "nosolution")
      EXPECT_STREQ(verdictName(Out), Name);
  }
  engine::JobResult Out;
  EXPECT_FALSE(applyVerdict("spilled", Out));
  EXPECT_FALSE(applyVerdict("", Out));
}

TEST(ProtocolFuzz, RejectWithoutCrashTable) {
  // Truncated, malformed, hostile and oversized frames: every decode
  // returns an error code (or a well-defined v1 parse) and never crashes
  // or accepts garbage as a v2 frame.
  const std::vector<std::string> BadV2 = {
      "v2",
      "v2 ",
      "v2  submit",
      "v2 submit",                      // no id
      "v2 submit id=",                  // empty value
      "v2 submit id=0",                 // zero id invalid
      "v2 submit id=abc",
      "v2 submit id=18446744073709551616", // 2^64 overflow
      "v2 submit id=1 unknownkey=3",
      "v2 submit id=1 pos=a%zzb",       // bad escape
      "v2 submit id=1 pos=a b",         // raw space re-splits: pos=a then b
      "v2 submit id=1 topk=0",
      "v2 submit id=1 topk=-3",
      "v2 submit id=1 sla=9223372036854775807",    // ms arg over MaxMsArg
      "v2 submit id=1 budget=9223372036854775807", // would overflow us math
      "v2 submit id=1 persketch=200000000000",
      "v2 submit id=1 pri=fastest",
      "v2 submit id=1 det=maybe",
      "v2 cancel",
      "v2 cancel id=1 extra=1",
      "v2 stats now",
      "v2 metrics now",                 // metrics takes no arguments
      "v2 trace",                       // no id
      "v2 trace id=0",                  // zero id invalid
      "v2 trace id=1 extra=2",
      "v2 frobnicate id=1",
      "v2 submit id=1 =x",
      "v2 submit id=1 desc",            // pair without '='
  };
  for (const std::string &Line : BadV2) {
    Request Out;
    EXPECT_NE(decodeRequest(Line, Out), ErrorCode::None) << Line;
    EXPECT_EQ(Out.K, Request::Kind::None) << Line;
  }

  // Oversized v2 input is rejected before parsing; v1 has no codec cap
  // (byte-frozen behaviour — the transport's line guard owns that).
  std::string Huge = "v2 submit id=1 desc=";
  Huge.append(MaxFrameBytes + 10, 'x');
  Request Out;
  EXPECT_EQ(decodeRequest(Huge, Out), ErrorCode::Oversized);
  // The rejection is addressable: version pinned to v2 and the id
  // recovered, so the server's error frame reaches the right ticket.
  EXPECT_EQ(Out.V, Version::V2);
  EXPECT_EQ(Out.Id, 1u);
  // Value errors past the id likewise keep it for the error response.
  EXPECT_EQ(decodeRequest("v2 submit id=7 budget=abc", Out),
            ErrorCode::BadArgument);
  EXPECT_EQ(Out.Id, 7u);
  std::string LongV1 = "desc ";
  LongV1.append(MaxFrameBytes + 10, 'x');
  EXPECT_EQ(decodeRequest(LongV1, Out), ErrorCode::None);
  EXPECT_EQ(Out.K, Request::Kind::Desc);

  // Client-chosen ids span the full uint64 range and must round-trip
  // through response encoding unsigned.
  Response Ack;
  Ack.K = Response::Kind::Queued;
  Ack.Id = 0x8000000000000001ull; // > INT64_MAX
  Response AckOut;
  ASSERT_EQ(decodeResponse(encodeResponse(Ack, Version::V2), Version::V2,
                           AckOut),
            ErrorCode::None);
  EXPECT_EQ(AckOut.Id, Ack.Id);

  const std::vector<std::string> BadResponses = {
      "",
      "done",
      "done x",
      "done 3",
      "done 3 solved",
      "done 3 solved total_ms=1.0",
      "done 3 warped total_ms=1.0 exec_ms=1.0",
      "done 3 solved total_ms=abc exec_ms=1.0",
      "queued",
      "queued minus",
      "answer 3",
      "v2 done id=1",                    // no status
      "v2 done id=1 status=warped total_ms=1.0",
      "v2 queued",
      "v2 answer id=1",                  // no regex
      "v2 error msg=x",                  // no code
      "v2 error code=nonsense",
      "v2 health healthy=2",
      "v2 metrics",                      // no text key
      "v2 trace id=1",                   // no json key
      "v2 trace json=x",                 // no id
      "v2 done id=1 status=solved trace=0", // zero trace id invalid
      "\x01\x02\x03 binary",
  };
  for (const std::string &Line : BadResponses) {
    Response R;
    Version V = Line.rfind("v2", 0) == 0 ? Version::V2 : Version::V1;
    EXPECT_NE(decodeResponse(Line, V, R), ErrorCode::None) << Line;
  }
}

TEST(ProtocolFuzz, SeededRandomBytesNeverCrash) {
  // 2000 random frames through all three decoders. Assertions are only
  // "terminates, and garbage that accidentally decodes as a v1 command
  // is one of the v1 kinds" — the point is memory safety under byte
  // noise, deterministic via the fixed seed.
  Rng R(0xfeedface);
  for (int I = 0; I < 2000; ++I) {
    const size_t Len = R.nextBelow(120);
    std::string Line;
    for (size_t J = 0; J < Len; ++J) {
      // Bias towards protocol-looking bytes so parsers get past the
      // first token often enough to stress the deep paths.
      switch (R.nextBelow(6)) {
      case 0:
        Line += "v2 ";
        break;
      case 1:
        Line += static_cast<char>('a' + R.nextBelow(26));
        break;
      case 2:
        Line += static_cast<char>('0' + R.nextBelow(10));
        break;
      case 3:
        Line += static_cast<char>(R.nextBelow(256));
        break;
      case 4:
        Line += '=';
        break;
      default:
        Line += ' ';
        break;
      }
    }
    Request Req;
    (void)decodeRequest(Line, Req);
    Response Res;
    (void)decodeResponse(Line, Version::V1, Res);
    (void)decodeResponse(Line, Version::V2, Res);
  }
  SUCCEED();
}

TEST(ProtocolFuzzRegression, HostileSketchPayloadsFailGracefully) {
  // Fuzz-derived, end-to-end over the wire path: the protocol layer
  // accepts these frames (the sketch text is opaque to the codec), and
  // the sketch parser behind it must reject the payload with an error —
  // it used to hit signed-overflow UB on the long digit run and a stack
  // overflow on the deep nesting (see tests/sketch/SketchTest.cpp for
  // the parser-level regressions).
  std::string Deep;
  for (int I = 0; I < 5000; ++I)
    Deep += "Not(";
  Deep += "<num>";
  for (int I = 0; I < 5000; ++I)
    Deep += ")";
  const std::string Hostile[] = {
      "Repeat(hole{<num>},99999999999999999999)",
      Deep,
  };
  for (const std::string &Sketch : Hostile) {
    Request Req;
    Req.K = Request::Kind::Submit;
    Req.Id = 1;
    Req.Sketches.push_back(Sketch);
    const std::string Frame = encodeRequest(Req, Version::V2);
    if (Frame.size() > MaxFrameBytes)
      continue; // the server would refuse it before parsing anyway
    Request Out;
    ASSERT_EQ(decodeRequest(Frame, Out), ErrorCode::None);
    ASSERT_EQ(Out.Sketches.size(), 1u);
    std::string Err;
    EXPECT_FALSE(parseSketch(Out.Sketches[0], &Err)) << Out.Sketches[0];
    EXPECT_FALSE(Err.empty());
  }
}
