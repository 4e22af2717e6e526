//===- tests/server/SocketServerTest.cpp ----------------------------------===//
//
// Smoke tests for the event-driven socket front-end: the wire protocol end
// to end over real TCP connections, several simultaneous clients with
// mixed priorities, pipelined solves on one connection, and clean
// shutdown. The server loop runs on a helper thread; every client socket
// lives in the test thread.
//
//===----------------------------------------------------------------------===//

#include "server/SocketServer.h"

#include "engine/Engine.h"
#include "obs/Metrics.h"
#include "service/Protocol.h"
#include "support/Clock.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace regel;
using namespace regel::server;

namespace {

/// A blocking line-oriented test client with a receive deadline.
class TestClient {
public:
  bool connectTo(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)) == 0;
  }

  ~TestClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  void shutdownWrite() { ::shutdown(Fd, SHUT_WR); }

  bool sendLine(const std::string &Line) {
    std::string Data = Line + "\n";
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t Sent =
          ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
      if (Sent <= 0)
        return false;
      Off += static_cast<size_t>(Sent);
    }
    return true;
  }

  /// Reads one '\n'-terminated line; empty string on timeout/EOF.
  std::string readLine(int TimeoutMs = 10000) {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Line;
      }
      pollfd P{Fd, POLLIN, 0};
      int N = ::poll(&P, 1, TimeoutMs);
      if (N <= 0)
        return "";
      char Tmp[4096];
      ssize_t Got = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (Got <= 0)
        return "";
      Buf.append(Tmp, static_cast<size_t>(Got));
    }
  }

  /// Reads lines until one starts with \p Prefix (returned) or the
  /// deadline passes (empty). Lines in between are collected in Skipped.
  std::string readUntil(const std::string &Prefix, int TimeoutMs = 20000) {
    Stopwatch W;
    while (W.elapsedMs() < TimeoutMs) {
      std::string Line = readLine(TimeoutMs);
      if (Line.empty())
        return "";
      if (Line.rfind(Prefix, 0) == 0)
        return Line;
      Skipped.push_back(Line);
    }
    return "";
  }

  /// True when the peer closed the connection (EOF within the timeout).
  bool waitEof(int TimeoutMs = 5000) {
    Stopwatch W;
    while (W.elapsedMs() < TimeoutMs) {
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, 100) <= 0)
        continue;
      char Tmp[256];
      ssize_t Got = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (Got == 0)
        return true;
      if (Got < 0 && errno != EAGAIN)
        return true;
      if (Got > 0)
        Buf.append(Tmp, static_cast<size_t>(Got));
    }
    return false;
  }

  std::vector<std::string> Skipped;

private:
  int Fd = -1;
  std::string Buf;
};

/// \p Replies with the server-assigned id of its `queued` line masked.
std::string maskQueuedId(std::string Replies) {
  size_t At = Replies.find("queued ");
  if (At != std::string::npos) {
    At += 7;
    Replies.replace(At, Replies.find('\n', At) - At, "<id>");
  }
  return Replies;
}

/// Server + loop thread, torn down in order.
class ServerFixture {
public:
  explicit ServerFixture(unsigned Threads = 2, size_t HighWater = 0,
                         size_t MaxInflightPerConn = 0)
      : ServerFixture(engineConfig(Threads, HighWater), MaxInflightPerConn) {}

  /// Fixture over a caller-built engine config (virtual-clock tests).
  explicit ServerFixture(const engine::EngineConfig &EC,
                         size_t MaxInflightPerConn = 0)
      : Eng(std::make_shared<engine::Engine>(EC)),
        Parser(std::make_shared<nlp::SemanticParser>()) {
    ServerConfig SC;
    SC.Port = 0; // ephemeral
    SC.Defaults.NumSketches = 4;
    SC.Defaults.BudgetMs = 8000;
    if (MaxInflightPerConn)
      SC.MaxInflightPerConn = MaxInflightPerConn;
    Server = std::make_unique<SocketServer>(
        Parser, std::make_shared<service::LocalService>(Eng), SC);
    Started = Server->start();
    if (Started)
      Loop = std::thread([this] { Server->run(); });
  }

  ~ServerFixture() {
    if (Started) {
      Server->stop();
      Loop.join();
    }
  }

  uint16_t port() const { return Server->port(); }
  bool started() const { return Started; }
  engine::Engine &engine() { return *Eng; }
  SocketServer &server() { return *Server; }

private:
  static engine::EngineConfig engineConfig(unsigned Threads,
                                           size_t HighWater) {
    engine::EngineConfig EC;
    EC.Threads = Threads;
    EC.MaxQueueDepth = HighWater;
    return EC;
  }

  std::shared_ptr<engine::Engine> Eng;
  std::shared_ptr<nlp::SemanticParser> Parser;
  std::unique_ptr<SocketServer> Server;
  std::thread Loop;
  bool Started = false;
};

} // namespace

TEST(SocketServer, SolveRoundTripOverTcp) {
  ServerFixture F;
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  EXPECT_NE(C.readLine(), ""); // greeting

  ASSERT_TRUE(C.sendLine("desc a capital letter followed by 2 digits"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("pos A12"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("pos Z99"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("neg 12"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("neg a12"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("solve"));
  std::string Ack = C.readLine();
  ASSERT_EQ(Ack.rfind("queued ", 0), 0u) << Ack;

  std::string Done = C.readUntil("done ");
  ASSERT_NE(Done, "");
  EXPECT_NE(Done.find(" solved "), std::string::npos) << Done;
  // The answer line precedes the done line and carries the same job id.
  bool SawAnswer = false;
  for (const std::string &L : C.Skipped)
    if (L.rfind("answer ", 0) == 0)
      SawAnswer = true;
  EXPECT_TRUE(SawAnswer);
}

TEST(SocketServer, ProtocolErrorsAndStats) {
  ServerFixture F;
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  C.readLine(); // greeting

  ASSERT_TRUE(C.sendLine("bogus"));
  EXPECT_EQ(C.readLine().rfind("error ", 0), 0u);
  ASSERT_TRUE(C.sendLine("priority fastest"));
  EXPECT_EQ(C.readLine().rfind("error ", 0), 0u);
  ASSERT_TRUE(C.sendLine("priority background"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("solve"));
  EXPECT_EQ(C.readLine().rfind("error ", 0), 0u); // nothing to solve
  ASSERT_TRUE(C.sendLine("stats"));
  std::string Stats = C.readLine();
  EXPECT_EQ(Stats.rfind("stats {", 0), 0u) << Stats;
  ASSERT_TRUE(C.sendLine("quit"));
  EXPECT_EQ(C.readLine(), "bye");
  EXPECT_TRUE(C.waitEof());
}

TEST(SocketServer, ManySimultaneousClientsWithMixedPriorities) {
  ServerFixture F(/*Threads=*/2);
  ASSERT_TRUE(F.started());

  // One batch client floods slow unsolvable work; several interactive
  // clients want instant answers while the batch churns.
  TestClient BatchC;
  ASSERT_TRUE(BatchC.connectTo(F.port()));
  BatchC.readLine();
  ASSERT_TRUE(BatchC.sendLine("priority batch"));
  EXPECT_EQ(BatchC.readLine(), "ok");
  ASSERT_TRUE(BatchC.sendLine("pos ab"));
  EXPECT_EQ(BatchC.readLine(), "ok");
  ASSERT_TRUE(BatchC.sendLine("neg ab")); // contradiction: churns budget
  EXPECT_EQ(BatchC.readLine(), "ok");
  ASSERT_TRUE(BatchC.sendLine("budget 300"));
  EXPECT_EQ(BatchC.readLine(), "ok");
  // Pipelined: several solves queued back-to-back before reading.
  const int BatchSolves = 6;
  for (int I = 0; I < BatchSolves; ++I) {
    ASSERT_TRUE(BatchC.sendLine("solve"));
    EXPECT_EQ(BatchC.readLine().rfind("queued ", 0), 0u);
  }

  const int NumInteractive = 3;
  std::vector<std::unique_ptr<TestClient>> Clients;
  for (int I = 0; I < NumInteractive; ++I) {
    auto C = std::make_unique<TestClient>();
    ASSERT_TRUE(C->connectTo(F.port()));
    C->readLine();
    ASSERT_TRUE(C->sendLine("pos A12"));
    EXPECT_EQ(C->readLine(), "ok");
    ASSERT_TRUE(C->sendLine("pos Z99"));
    EXPECT_EQ(C->readLine(), "ok");
    ASSERT_TRUE(C->sendLine("neg 12"));
    EXPECT_EQ(C->readLine(), "ok");
    ASSERT_TRUE(C->sendLine("desc a capital letter followed by 2 digits"));
    EXPECT_EQ(C->readLine(), "ok");
    ASSERT_TRUE(C->sendLine("solve"));
    EXPECT_EQ(C->readLine().rfind("queued ", 0), 0u);
    Clients.push_back(std::move(C));
  }

  // Every interactive client gets its answer even while the batch client's
  // fan-out churns on the same two workers.
  for (int I = 0; I < NumInteractive; ++I) {
    std::string Done = Clients[static_cast<size_t>(I)]->readUntil("done ");
    ASSERT_NE(Done, "") << "interactive client " << I << " starved";
    EXPECT_NE(Done.find(" solved "), std::string::npos) << Done;
  }
  // The batch client eventually drains all its pipelined completions too.
  int BatchDone = 0;
  for (int I = 0; I < BatchSolves; ++I) {
    std::string Done = BatchC.readUntil("done ", 30000);
    if (Done.empty())
      break;
    ++BatchDone;
  }
  EXPECT_EQ(BatchDone, BatchSolves);
}

TEST(SocketServer, QuitDiscardsPipelinedRemainderEvenWithEof) {
  // 'quit' and everything after it can arrive in the same burst as the
  // EOF (the scripted-client idiom); the post-quit commands must be
  // discarded, not executed after 'bye'.
  ServerFixture F;
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  C.readLine(); // greeting
  ASSERT_TRUE(C.sendLine("quit"));
  ASSERT_TRUE(C.sendLine("stats"));
  C.shutdownWrite();
  EXPECT_EQ(C.readLine(), "bye");
  // Nothing after bye — in particular no stats line — just EOF/silence.
  std::string Extra = C.readLine(2000);
  EXPECT_EQ(Extra, "") << "unexpected output after bye: " << Extra;
}

TEST(SocketServer, HalfCloseClientStillGetsPipelinedAnswers) {
  // The EOF idiom: pipeline the whole query, shut down the write side,
  // keep reading. The server must run the buffered commands and deliver
  // the answer before closing the connection.
  ServerFixture F(/*Threads=*/2);
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  for (const char *Cmd :
       {"desc a capital letter followed by 2 digits", "pos A12", "pos Z99",
        "neg 12", "solve"})
    ASSERT_TRUE(C.sendLine(Cmd));
  C.shutdownWrite();
  std::string Done = C.readUntil("done ");
  ASSERT_NE(Done, "") << "half-closed client never got its answer";
  EXPECT_NE(Done.find(" solved "), std::string::npos) << Done;
  EXPECT_TRUE(C.waitEof()) << "connection should close once answers landed";
}

TEST(SocketServer, PipelinedV1BurstGetsTheLockstepReplies) {
  // The loop queues each reply and sends a connection's replies to one
  // read as one batch. A v1 burst in one write must get byte for byte the
  // replies the same commands get one at a time (only the server-assigned
  // id differs).
  ServerFixture F(/*Threads=*/2);
  ASSERT_TRUE(F.started());
  const std::vector<std::string> Cmds = {
      "desc a capital letter followed by 2 digits", "pos A12", "pos Z99",
      "neg 12", "bogus", "topk 2", "solve"};
  TestClient Lockstep, Burst;
  ASSERT_TRUE(Lockstep.connectTo(F.port()));
  std::string Expected = Lockstep.readLine() + "\n";
  for (const std::string &Cmd : Cmds) {
    ASSERT_TRUE(Lockstep.sendLine(Cmd));
    Expected += Lockstep.readLine() + "\n";
  }
  ASSERT_TRUE(Burst.connectTo(F.port()));
  std::string Joined;
  for (const std::string &Cmd : Cmds)
    Joined += (Joined.empty() ? "" : "\n") + Cmd;
  ASSERT_TRUE(Burst.sendLine(Joined)); // the whole burst in one send()
  std::string Got;
  for (size_t I = 0; I <= Cmds.size(); ++I) // greeting + one per command
    Got += Burst.readLine() + "\n";
  EXPECT_EQ(maskQueuedId(Got), maskQueuedId(Expected));
  EXPECT_NE(Got.find("\nerror unknown command 'bogus'\n"), std::string::npos);
  for (TestClient *C : {&Lockstep, &Burst}) {
    std::string Done = C->readUntil("done ");
    EXPECT_NE(Done.find(" solved "), std::string::npos) << Done;
  }
}

TEST(SocketServer, ShedVerdictSurfacesOverTheWire) {
  // Deadline-aware shedding end to end: prime the engine's estimator so
  // an interactive query with a hopeless SLA is shed at submit, and the
  // client reads a prompt "done <id> shed" verdict — distinct from
  // "rejected" (queue full), with no answer lines.
  ServerFixture F(/*Threads=*/1);
  ASSERT_TRUE(F.started());
  F.engine().estimator().recordSample(engine::Priority::Interactive, 500.0);

  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  C.readLine(); // greeting
  ASSERT_TRUE(C.sendLine("pos A12"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("pos Z99"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("neg 12"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("sla 50")); // estimate 500ms >> 50ms budget
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("solve"));
  EXPECT_EQ(C.readLine().rfind("queued ", 0), 0u);
  std::string Done = C.readUntil("done ");
  ASSERT_NE(Done, "");
  EXPECT_NE(Done.find(" shed "), std::string::npos) << Done;
  for (const std::string &L : C.Skipped)
    EXPECT_NE(L.rfind("answer ", 0), 0u) << "shed job produced an answer";
  EXPECT_EQ(F.engine().snapshot().JobsShedOnArrival, 1u);

  // Dropping the SLA lets the same query through and it solves normally.
  ASSERT_TRUE(C.sendLine("sla 0"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("solve"));
  EXPECT_EQ(C.readLine().rfind("queued ", 0), 0u);
  Done = C.readUntil("done ");
  ASSERT_NE(Done, "");
  EXPECT_NE(Done.find(" solved "), std::string::npos) << Done;
}

TEST(SocketServer, AbandonedConnectionIsBoundedByJobBudget) {
  // TCP cannot distinguish an abandoning close() from a half-close that
  // still reads, so the server lets in-flight work run out its own
  // budget (never hanging on the dead peer) and reclaims the connection
  // when the work lands.
  ServerFixture F(/*Threads=*/1);
  ASSERT_TRUE(F.started());
  {
    TestClient C;
    ASSERT_TRUE(C.connectTo(F.port()));
    C.readLine();
    ASSERT_TRUE(C.sendLine("pos ab"));
    C.readLine();
    ASSERT_TRUE(C.sendLine("neg ab"));
    C.readLine();
    ASSERT_TRUE(C.sendLine("budget 400"));
    C.readLine();
    ASSERT_TRUE(C.sendLine("solve"));
    EXPECT_EQ(C.readLine().rfind("queued ", 0), 0u);
    // Destructor closes the socket with the 400ms job still running.
  }
  // The job expires on its own budget and the engine drains — the dead
  // client cannot pin the queue past that.
  Stopwatch W;
  while (F.engine().queueDepth() > 0 && W.elapsedMs() < 15000)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(F.engine().queueDepth(), 0u);
  // And the server is still healthy for the next client.
  TestClient C2;
  ASSERT_TRUE(C2.connectTo(F.port()));
  EXPECT_NE(C2.readLine(), "");
  ASSERT_TRUE(C2.sendLine("stats"));
  EXPECT_EQ(C2.readLine().rfind("stats {", 0), 0u);
}

TEST(SocketServer, PerConnectionInflightCapAnswersBusy) {
  // One worker, cap of 1 in-flight job per connection: a client that
  // pipelines a second solve while its first churns gets "error busy"
  // immediately (no queue slot burned), and is served normally again
  // once the first job lands.
  ServerFixture F(/*Threads=*/1, /*HighWater=*/0, /*MaxInflightPerConn=*/1);
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  C.readLine(); // greeting

  ASSERT_TRUE(C.sendLine("pos ab"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("neg ab")); // contradiction: churns its budget
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("budget 1500"));
  EXPECT_EQ(C.readLine(), "ok");
  ASSERT_TRUE(C.sendLine("solve"));
  EXPECT_EQ(C.readLine().rfind("queued ", 0), 0u);
  // Second solve while the first is in flight: busy, not queued.
  ASSERT_TRUE(C.sendLine("solve"));
  EXPECT_EQ(C.readLine(), "error busy");

  // The first job completes; the connection's slot frees up.
  std::string Done = C.readUntil("done ");
  ASSERT_NE(Done, "");
  ASSERT_TRUE(C.sendLine("solve"));
  EXPECT_EQ(C.readLine().rfind("queued ", 0), 0u);
  C.readUntil("done ");
}

TEST(SocketServer, V2SubmitRoundTripWithExplicitSketch) {
  // The structured protocol end to end: one-shot submit with a
  // client-chosen id and an explicit sketch, answered with v2 frames
  // carrying the same id.
  ServerFixture F;
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  C.readLine(); // greeting (v1 banner; a v2 client ignores it)

  ASSERT_TRUE(C.sendLine("v2 submit id=7 "
                         "sketch=Concat(<cap>%2CRepeat(<num>%2C2)) "
                         "pos=A12 pos=Z99 neg=12 budget=8000"));
  EXPECT_EQ(C.readLine(), "v2 queued id=7");
  std::string Done = C.readUntil("v2 done ");
  ASSERT_NE(Done, "");
  EXPECT_NE(Done.find("id=7"), std::string::npos) << Done;
  EXPECT_NE(Done.find("status=solved"), std::string::npos) << Done;
  EXPECT_NE(Done.find("queue_ms="), std::string::npos) << Done;
  bool SawAnswer = false;
  for (const std::string &L : C.Skipped)
    if (L.rfind("v2 answer id=7 ", 0) == 0)
      SawAnswer = true;
  EXPECT_TRUE(SawAnswer);

  // v1 and v2 interleave on one connection; v1 state is untouched by the
  // self-contained v2 submit.
  ASSERT_TRUE(C.sendLine("stats"));
  EXPECT_EQ(C.readLine().rfind("stats {", 0), 0u);
  ASSERT_TRUE(C.sendLine("v2 health"));
  std::string Health = C.readLine();
  EXPECT_EQ(Health.rfind("v2 health healthy=1", 0), 0u) << Health;
}

TEST(SocketServer, V2ErrorsCarryTheTaxonomy) {
  ServerFixture F(/*Threads=*/2, /*HighWater=*/0, /*MaxInflightPerConn=*/1);
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  C.readLine(); // greeting

  // Malformed frame.
  ASSERT_TRUE(C.sendLine("v2 submit"));
  EXPECT_EQ(C.readLine().rfind("v2 error code=malformed", 0), 0u);
  // Unknown frame type.
  ASSERT_TRUE(C.sendLine("v2 frobnicate id=1"));
  EXPECT_EQ(C.readLine().rfind("v2 error code=unknown_command", 0), 0u);
  // Nothing to solve.
  ASSERT_TRUE(C.sendLine("v2 submit id=1"));
  EXPECT_EQ(C.readLine().rfind("v2 error code=nothing_to_solve", 0), 0u);
  // Unparsable sketch.
  ASSERT_TRUE(C.sendLine("v2 submit id=1 sketch=NotASketch(("));
  EXPECT_EQ(C.readLine().rfind("v2 error code=bad_argument", 0), 0u);
  // Cancel of an unknown id.
  ASSERT_TRUE(C.sendLine("v2 cancel id=99"));
  EXPECT_EQ(C.readLine().rfind("v2 error code=unknown_id", 0), 0u);

  // Duplicate id / busy need an in-flight job: churn one.
  ASSERT_TRUE(C.sendLine(
      "v2 submit id=5 sketch=hole{} pos=ab neg=ab budget=2500"));
  EXPECT_EQ(C.readLine(), "v2 queued id=5");
  ASSERT_TRUE(C.sendLine("v2 submit id=5 pos=x"));
  EXPECT_EQ(C.readLine().rfind("v2 error code=duplicate_id", 0), 0u);
  ASSERT_TRUE(C.sendLine("v2 submit id=6 pos=x"));
  EXPECT_EQ(C.readLine().rfind("v2 error code=busy", 0), 0u);
  // Cancelling the in-flight job is acknowledged and completes it.
  ASSERT_TRUE(C.sendLine("v2 cancel id=5"));
  EXPECT_EQ(C.readLine(), "v2 ok");
  std::string Done = C.readUntil("v2 done ");
  ASSERT_NE(Done, "");
  EXPECT_NE(Done.find("id=5"), std::string::npos) << Done;
}

TEST(SocketServer, V2MetricsAndTraceEndToEnd) {
  // The telemetry surface over the wire, with exact-tick durations: a
  // zero-worker engine on a ManualClock queues a 5ms-SLA job, the test
  // advances virtual time by 6ms, and the eager-expiry sweep (driven by
  // the server loop's deadline-bounded poll) completes it. The done frame
  // advertises the retained trace id, the fetched trace shows a 6000us
  // queue span, and the metrics frame expositions the same sample — no
  // sleeps anywhere; virtual time moves only when this test says so.
  auto MC = std::make_shared<ManualClock>();
  engine::EngineConfig EC;
  EC.Threads = 0;
  EC.CacheShards = 4;
  EC.TimeSource = MC;
  ServerFixture F(EC);
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  C.readLine(); // greeting

  // The metrics frame works before any job exists.
  ASSERT_TRUE(C.sendLine("v2 metrics"));
  std::string MLine = C.readLine();
  ASSERT_EQ(MLine.rfind("v2 metrics text=", 0), 0u) << MLine;

  ASSERT_TRUE(C.sendLine("v2 submit id=3 pos=A12 sla=5"));
  EXPECT_EQ(C.readLine(), "v2 queued id=3");
  MC->advanceMs(6);
  std::string Done = C.readUntil("v2 done ", 10000);
  ASSERT_NE(Done, "") << "sweep never expired the lapsed job";
  EXPECT_NE(Done.find("id=3"), std::string::npos) << Done;
  EXPECT_NE(Done.find("status=expired"), std::string::npos) << Done;

  // Failed jobs are always retained, so the done frame must carry trace=.
  protocol::Response DoneR;
  ASSERT_EQ(protocol::decodeResponse(Done, protocol::Version::V2, DoneR),
            protocol::ErrorCode::None)
      << Done;
  ASSERT_NE(DoneR.TraceId, 0u) << Done;

  // Fetch the trace: a 6000us queue span, no exec span, the verdict in
  // the metadata — the "why was this job slow?" answer, to the tick.
  ASSERT_TRUE(C.sendLine("v2 trace id=" + std::to_string(DoneR.TraceId)));
  std::string TraceLine = C.readLine();
  protocol::Response TraceR;
  ASSERT_EQ(protocol::decodeResponse(TraceLine, protocol::Version::V2,
                                     TraceR),
            protocol::ErrorCode::None)
      << TraceLine;
  EXPECT_EQ(TraceR.Id, DoneR.TraceId);
  EXPECT_NE(TraceR.Detail.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(TraceR.Detail.find("\"dur\":6000"), std::string::npos)
      << TraceR.Detail;
  EXPECT_EQ(TraceR.Detail.find("\"name\":\"exec\""), std::string::npos)
      << "a job expired in queue never ran";
  EXPECT_NE(TraceR.Detail.find("\"verdict\":\"expired_in_queue\""),
            std::string::npos);

  // The metrics exposition carries the same job: absorbing the scraped
  // text reproduces the 6000us queue sample in the per-class histogram.
  ASSERT_TRUE(C.sendLine("v2 metrics"));
  MLine = C.readLine();
  protocol::Response MetricsR;
  ASSERT_EQ(protocol::decodeResponse(MLine, protocol::Version::V2, MetricsR),
            protocol::ErrorCode::None);
  obs::Registry Fed;
  ASSERT_GT(Fed.absorbText(MetricsR.Detail), 0u);
  obs::HistogramSnapshot Q =
      Fed.histogramSnapshot("regel_job_queue_us", "pri=\"interactive\"");
  ASSERT_EQ(Q.Count, 1u);
  EXPECT_EQ(Q.percentileUs(1.0),
            obs::Histogram::bucketUpperUs(obs::Histogram::bucketFor(6000)));
  EXPECT_NE(MetricsR.Detail.find("regel_jobs_expired_in_queue_total 1"),
            std::string::npos);

  // Unknown trace ids answer with an empty-json trace frame, never an
  // error (error frames carry ticket ids; a trace id there could fail an
  // innocent in-flight job).
  ASSERT_TRUE(C.sendLine("v2 trace id=18446744073709551615"));
  std::string Unknown = C.readLine();
  protocol::Response UnknownR;
  ASSERT_EQ(protocol::decodeResponse(Unknown, protocol::Version::V2,
                                     UnknownR),
            protocol::ErrorCode::None)
      << Unknown;
  EXPECT_EQ(UnknownR.K, protocol::Response::Kind::Trace);
  EXPECT_EQ(UnknownR.Detail, "");

  // v1 stays byte-frozen: "metrics" is the unknown command it always was.
  ASSERT_TRUE(C.sendLine("metrics"));
  EXPECT_EQ(C.readLine(), "error unknown command 'metrics'");
}

TEST(SocketServer, DeadlineDrivenPollTimeoutExpiresQueuedSla) {
  // The timer half of eager expiry: a 0-worker engine (nothing ever
  // dispatches, so no dispatch/submit event will sweep the deadline
  // heap) holds a queued job whose SLA lapses at +150ms. The server's
  // poll() timeout is bounded by the service's NextDeadlineDeltaMs, so
  // the loop wakes and sweeps at ~150ms — far inside the legacy 1000ms
  // fixed timeout, which is the discriminating margin below.
  ServerFixture F(/*Threads=*/0);
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  C.readLine(); // greeting
  ASSERT_TRUE(C.sendLine("pos A12"));
  C.readLine();
  ASSERT_TRUE(C.sendLine("sla 150"));
  C.readLine();
  Stopwatch W;
  ASSERT_TRUE(C.sendLine("solve"));
  EXPECT_EQ(C.readLine().rfind("queued ", 0), 0u);
  std::string Done = C.readUntil("done ", 5000);
  const double Ms = W.elapsedMs();
  ASSERT_NE(Done, "");
  EXPECT_NE(Done.find(" expired "), std::string::npos) << Done;
  // Legacy behaviour waited out the full 1s backstop (and the engine
  // suite's ManualClock tests pin the sweep itself); here the verdict
  // must beat that backstop by a wide margin even on a loaded CI box.
  EXPECT_LT(Ms, 900.0) << "expiry waited for the fixed poll timeout";
  EXPECT_EQ(F.engine().snapshot().JobsExpiredInQueue, 1u);
}
