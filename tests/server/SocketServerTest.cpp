//===- tests/server/SocketServerTest.cpp ----------------------------------===//
//
// Smoke tests for the event-driven socket front-end: the wire protocol end
// to end over real TCP connections, several simultaneous clients with
// mixed priorities, pipelined submits on one connection, the transport's
// refusals as error frames, and clean shutdown. The server loop runs on a helper thread; every client socket
// lives in the test thread.
//
//===----------------------------------------------------------------------===//

#include "server/SocketServer.h"

#include "data/StackOverflowSet.h"
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

#include <algorithm>
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

  bool sendLine(const std::string &Line) { return sendRaw(Line + "\n"); }

  bool sendRaw(const std::string &Data) {
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

/// The error code of \p Line, which must be a `v2 error` frame a client's
/// decoder accepts; ErrorCode::None otherwise.
protocol::ErrorCode errorCodeOf(const std::string &Line) {
  protocol::Response R;
  if (protocol::decodeResponse(Line, protocol::Version::V2, R) !=
          protocol::ErrorCode::None ||
      R.K != protocol::Response::Kind::Error)
    return protocol::ErrorCode::None;
  return R.Err;
}

/// A `v2 submit` frame for a description plus examples.
std::string submitFrame(uint64_t Id, const std::string &Desc,
                        std::vector<std::string> Pos,
                        std::vector<std::string> Neg,
                        int64_t BudgetMs = -1) {
  protocol::Request R;
  R.K = protocol::Request::Kind::Submit;
  R.Id = Id;
  R.Text = Desc;
  R.Pos = std::move(Pos);
  R.Neg = std::move(Neg);
  R.BudgetMs = BudgetMs;
  return protocol::encodeRequest(R, protocol::Version::V2);
}

const char CapDigitsDesc[] = "a capital letter followed by 2 digits";

/// Server + loop thread, torn down in order.
class ServerFixture {
public:
  explicit ServerFixture(unsigned Threads = 2, size_t HighWater = 0,
                         size_t MaxInflightPerConn = 0,
                         size_t MaxConnections = 0)
      : ServerFixture(engineConfig(Threads, HighWater), MaxInflightPerConn,
                      MaxConnections) {}

  /// Fixture over a caller-built engine config (virtual-clock tests).
  explicit ServerFixture(const engine::EngineConfig &EC,
                         size_t MaxInflightPerConn = 0,
                         size_t MaxConnections = 0)
      : Eng(std::make_shared<engine::Engine>(EC)),
        Parser(std::make_shared<nlp::SemanticParser>()) {
    ServerConfig SC;
    SC.Port = 0; // ephemeral
    SC.Defaults.NumSketches = 4;
    SC.Defaults.BudgetMs = 8000;
    if (MaxInflightPerConn)
      SC.MaxInflightPerConn = MaxInflightPerConn;
    if (MaxConnections)
      SC.MaxConnections = MaxConnections;
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
  // A description-based submit end to end: no greeting, the ack first,
  // then the answer frames and one done frame, all carrying the
  // client's id.
  ServerFixture F;
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));

  ASSERT_TRUE(C.sendLine("v2 submit id=1 "
                         "desc=a%20capital%20letter%20followed%20by%202%20"
                         "digits pos=A12 pos=Z99 neg=12 neg=a12"));
  EXPECT_EQ(C.readLine(), "v2 queued id=1");

  std::string Done = C.readUntil("v2 done ");
  ASSERT_NE(Done, "");
  EXPECT_EQ(Done.rfind("v2 done id=1 status=solved ", 0), 0u) << Done;
  // The answer frame precedes the done frame and carries the same id.
  bool SawAnswer = false;
  for (const std::string &L : C.Skipped)
    if (L.rfind("v2 answer id=1 ", 0) == 0)
      SawAnswer = true;
  EXPECT_TRUE(SawAnswer);
}

TEST(SocketServer, ProtocolErrorsAndStats) {
  ServerFixture F;
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));

  // A line that is not a v2 frame is an unknown command, echoed.
  ASSERT_TRUE(C.sendLine("bogus"));
  std::string Bogus = C.readLine();
  EXPECT_EQ(Bogus, "v2 error code=unknown_command msg=bogus");
  EXPECT_EQ(errorCodeOf(Bogus), protocol::ErrorCode::UnknownCommand);
  // An empty line answers nothing: the next reply is the health frame.
  ASSERT_TRUE(C.sendLine(""));
  ASSERT_TRUE(C.sendLine("v2 health"));
  EXPECT_EQ(C.readLine().rfind("v2 health healthy=1 ", 0), 0u);
  ASSERT_TRUE(C.sendLine("v2 submit id=1 pos=A12 pri=fastest"));
  EXPECT_EQ(C.readLine(), "v2 error code=unknown_priority id=1 msg=fastest");
  ASSERT_TRUE(C.sendLine("v2 submit id=2 pri=background"));
  EXPECT_EQ(C.readLine(), "v2 error code=nothing_to_solve id=2");
  ASSERT_TRUE(C.sendLine("v2 stats"));
  protocol::Response Stats;
  ASSERT_EQ(protocol::decodeResponse(C.readLine(), protocol::Version::V2,
                                     Stats),
            protocol::ErrorCode::None);
  EXPECT_EQ(Stats.K, protocol::Response::Kind::Stats);
  EXPECT_EQ(Stats.Detail.rfind("{", 0), 0u) << Stats.Detail;
  // Closing the write side ends the connection once its replies are out.
  C.shutdownWrite();
  EXPECT_TRUE(C.waitEof());
}

TEST(SocketServer, ManySimultaneousClientsWithMixedPriorities) {
  ServerFixture F(/*Threads=*/2);
  ASSERT_TRUE(F.started());

  // One batch client floods slow unsolvable work; several interactive
  // clients want instant answers while the batch churns.
  TestClient BatchC;
  ASSERT_TRUE(BatchC.connectTo(F.port()));
  // Pipelined: several submits queued back-to-back before any lands;
  // pos=ab neg=ab is a contradiction that churns its whole budget.
  const int BatchSolves = 6;
  for (int I = 1; I <= BatchSolves; ++I) {
    const std::string Id = std::to_string(I);
    ASSERT_TRUE(BatchC.sendLine("v2 submit id=" + Id +
                                " pos=ab neg=ab budget=300 pri=batch"));
    EXPECT_EQ(BatchC.readLine(), "v2 queued id=" + Id);
  }

  const int NumInteractive = 3;
  std::vector<std::unique_ptr<TestClient>> Clients;
  for (int I = 0; I < NumInteractive; ++I) {
    auto C = std::make_unique<TestClient>();
    ASSERT_TRUE(C->connectTo(F.port()));
    ASSERT_TRUE(C->sendLine(
        submitFrame(1, CapDigitsDesc, {"A12", "Z99"}, {"12"})));
    EXPECT_EQ(C->readLine(), "v2 queued id=1");
    Clients.push_back(std::move(C));
  }

  // Every interactive client gets its answer even while the batch client's
  // fan-out churns on the same two workers.
  for (int I = 0; I < NumInteractive; ++I) {
    std::string Done = Clients[static_cast<size_t>(I)]->readUntil("v2 done ");
    ASSERT_NE(Done, "") << "interactive client " << I << " starved";
    EXPECT_NE(Done.find(" status=solved "), std::string::npos) << Done;
  }
  // The batch client eventually drains all its pipelined completions too.
  int BatchDone = 0;
  for (int I = 0; I < BatchSolves; ++I) {
    std::string Done = BatchC.readUntil("v2 done ", 30000);
    if (Done.empty())
      break;
    ++BatchDone;
  }
  EXPECT_EQ(BatchDone, BatchSolves);
}

TEST(SocketServer, HalfCloseClientStillGetsPipelinedAnswers) {
  // The EOF idiom: pipeline the requests, shut down the write side, keep
  // reading. The server must run the buffered frames and deliver every
  // answer before closing the connection.
  ServerFixture F(/*Threads=*/2);
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  ASSERT_TRUE(C.sendLine(submitFrame(1, CapDigitsDesc, {"A12", "Z99"},
                                     {"12"})));
  ASSERT_TRUE(C.sendLine("v2 submit id=2 "
                         "sketch=Concat(<cap>%2CRepeat(<num>%2C2)) "
                         "pos=A12 pos=Z99 neg=12"));
  C.shutdownWrite();
  std::vector<std::string> Dones;
  for (int I = 0; I < 2; ++I) {
    std::string Done = C.readUntil("v2 done ");
    ASSERT_NE(Done, "") << "half-closed client never got its answers";
    EXPECT_NE(Done.find(" status=solved "), std::string::npos) << Done;
    Dones.push_back(Done.substr(0, Done.find(" status=")));
  }
  std::sort(Dones.begin(), Dones.end());
  EXPECT_EQ(Dones, (std::vector<std::string>{"v2 done id=1", "v2 done id=2"}));
  EXPECT_TRUE(C.waitEof()) << "connection should close once answers landed";
}

TEST(SocketServer, PipelinedBurstGetsTheLockstepReplies) {
  // The loop queues each reply and sends a connection's replies to one
  // read as one batch. A burst in one write must get byte for byte the
  // replies the same lines get one at a time, the `queued` acks in
  // submit order. Completions may land between replies, so both sides
  // set the answer/done frames aside.
  ServerFixture F(/*Threads=*/2);
  ASSERT_TRUE(F.started());
  const std::vector<std::string> Cmds = {
      submitFrame(1, CapDigitsDesc, {"A12", "Z99"}, {"12"}) + " topk=2",
      "bogus",
      "", // no reply
      "v2 frobnicate id=4",
      "v2 submit id=2 pos=a pri=fastest",
      "v2 cancel id=99",
      "v2 submit id=3 sketch=Concat(<cap>%2CRepeat(<num>%2C2)) pos=A12 "
      "pos=Z99 neg=12",
  };
  auto ReadReply = [](TestClient &C, std::vector<std::string> &Dones) {
    for (;;) {
      std::string L = C.readLine();
      if (L.rfind("v2 answer ", 0) == 0)
        continue;
      if (L.rfind("v2 done ", 0) != 0)
        return L;
      Dones.push_back(L.substr(0, L.find(" status=")));
    }
  };
  TestClient Lockstep, Burst;
  std::vector<std::string> LockstepDones, BurstDones;
  ASSERT_TRUE(Lockstep.connectTo(F.port()));
  std::string Expected;
  for (const std::string &Cmd : Cmds) {
    ASSERT_TRUE(Lockstep.sendLine(Cmd));
    if (!Cmd.empty())
      Expected += ReadReply(Lockstep, LockstepDones) + "\n";
  }
  EXPECT_EQ(Expected, "v2 queued id=1\n"
                      "v2 error code=unknown_command msg=bogus\n"
                      "v2 error code=unknown_command msg=frobnicate\n"
                      "v2 error code=unknown_priority id=2 msg=fastest\n"
                      "v2 error code=unknown_id id=99\n"
                      "v2 queued id=3\n");
  ASSERT_TRUE(Burst.connectTo(F.port()));
  std::string Joined;
  for (size_t I = 0; I < Cmds.size(); ++I)
    Joined += (I ? "\n" : "") + Cmds[I];
  ASSERT_TRUE(Burst.sendLine(Joined)); // the whole burst in one send()
  std::string Got;
  for (size_t I = 0; I + 1 < Cmds.size(); ++I) // one per non-empty line
    Got += ReadReply(Burst, BurstDones) + "\n";
  EXPECT_EQ(Got, Expected);
  for (auto [C, Dones] : {std::pair{&Lockstep, &LockstepDones},
                          std::pair{&Burst, &BurstDones}}) {
    while (Dones->size() < 2) {
      std::string Done = C->readUntil("v2 done ");
      ASSERT_NE(Done, "");
      EXPECT_NE(Done.find(" status=solved "), std::string::npos) << Done;
      Dones->push_back(Done.substr(0, Done.find(" status=")));
    }
    std::sort(Dones->begin(), Dones->end());
    EXPECT_EQ(*Dones,
              (std::vector<std::string>{"v2 done id=1", "v2 done id=3"}));
  }
}

TEST(SocketServer, ShedVerdictSurfacesOverTheWire) {
  // Deadline-aware shedding end to end: prime the engine's estimator so
  // an interactive query with a hopeless SLA is shed at submit, and the
  // client reads a prompt `status=shed` verdict — distinct from
  // "rejected" (queue full), with no answer frames.
  ServerFixture F(/*Threads=*/1);
  ASSERT_TRUE(F.started());
  F.engine().estimator().recordSample(engine::Priority::Interactive, 500.0);

  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  // Estimate 500ms >> the 50ms SLA.
  ASSERT_TRUE(C.sendLine("v2 submit id=1 pos=A12 pos=Z99 neg=12 sla=50"));
  EXPECT_EQ(C.readLine(), "v2 queued id=1");
  std::string Done = C.readUntil("v2 done ");
  ASSERT_NE(Done, "");
  EXPECT_NE(Done.find(" status=shed "), std::string::npos) << Done;
  for (const std::string &L : C.Skipped)
    EXPECT_NE(L.rfind("v2 answer ", 0), 0u) << "shed job produced an answer";
  EXPECT_EQ(F.engine().snapshot().JobsShedOnArrival, 1u);

  // Dropping the SLA lets the same query through and it solves normally.
  ASSERT_TRUE(C.sendLine("v2 submit id=2 pos=A12 pos=Z99 neg=12 sla=0"));
  EXPECT_EQ(C.readLine(), "v2 queued id=2");
  Done = C.readUntil("v2 done ");
  ASSERT_NE(Done, "");
  EXPECT_NE(Done.find(" status=solved "), std::string::npos) << Done;
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
    ASSERT_TRUE(C.sendLine("v2 submit id=1 pos=ab neg=ab budget=400"));
    EXPECT_EQ(C.readLine(), "v2 queued id=1");
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
  ASSERT_TRUE(C2.sendLine("v2 stats"));
  EXPECT_EQ(C2.readLine().rfind("v2 stats json=", 0), 0u);
}

TEST(SocketServer, PerConnectionInflightCapAnswersBusy) {
  // One worker, cap of 1 in-flight job per connection: a client that
  // pipelines a second submit while its first churns gets `code=busy`
  // immediately (no queue slot burned), and is served normally again
  // once the first job lands.
  ServerFixture F(/*Threads=*/1, /*HighWater=*/0, /*MaxInflightPerConn=*/1);
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));

  // pos=ab neg=ab is a contradiction: it churns its budget.
  ASSERT_TRUE(C.sendLine("v2 submit id=1 pos=ab neg=ab budget=1500"));
  EXPECT_EQ(C.readLine(), "v2 queued id=1");
  // Second submit while the first is in flight: busy, not queued.
  ASSERT_TRUE(C.sendLine("v2 submit id=2 pos=ab neg=ab budget=1500"));
  EXPECT_EQ(C.readLine(), "v2 error code=busy id=2");

  // The first job completes; the connection's slot frees up.
  std::string Done = C.readUntil("v2 done ");
  ASSERT_NE(Done, "");
  ASSERT_TRUE(C.sendLine("v2 submit id=3 pos=ab neg=ab budget=1500"));
  EXPECT_EQ(C.readLine(), "v2 queued id=3");
  C.readUntil("v2 done ");
}

TEST(SocketServer, OverlongLineAnswersLineTooLong) {
  // Input that grows past MaxLineBytes without a newline trips the
  // transport guard: the client gets a decodable error frame, and the
  // connection closes once it is out. (One byte over the cap, so the
  // server has read everything when it closes: unread input would turn
  // its close into a reset.)
  ServerFixture F;
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));
  std::string Line = "v2 submit id=1 desc=";
  Line.resize(ServerConfig().MaxLineBytes + 1, 'x');
  ASSERT_TRUE(C.sendRaw(Line));
  const std::string Err = C.readLine();
  EXPECT_EQ(Err, "v2 error code=line_too_long");
  EXPECT_EQ(errorCodeOf(Err), protocol::ErrorCode::LineTooLong);
  EXPECT_TRUE(C.waitEof());
}

TEST(SocketServer, ConnectionBeyondLimitAnswersServerFull) {
  ServerFixture F(/*Threads=*/1, /*HighWater=*/0, /*MaxInflightPerConn=*/0,
                  /*MaxConnections=*/1);
  ASSERT_TRUE(F.started());
  TestClient A;
  ASSERT_TRUE(A.connectTo(F.port()));
  // A round trip proves A holds the one slot.
  ASSERT_TRUE(A.sendLine("v2 health"));
  EXPECT_EQ(A.readLine().rfind("v2 health ", 0), 0u);

  TestClient B;
  ASSERT_TRUE(B.connectTo(F.port()));
  const std::string Err = B.readLine();
  EXPECT_EQ(Err, "v2 error code=server_full");
  EXPECT_EQ(errorCodeOf(Err), protocol::ErrorCode::ServerFull);
  EXPECT_TRUE(B.waitEof());

  // A is unaffected.
  ASSERT_TRUE(A.sendLine("v2 health"));
  EXPECT_EQ(A.readLine().rfind("v2 health ", 0), 0u);
}

TEST(SocketServer, V2SubmitRoundTripWithExplicitSketch) {
  // The structured protocol end to end: one-shot submit with a
  // client-chosen id and an explicit sketch, answered with v2 frames
  // carrying the same id.
  ServerFixture F;
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));

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

  ASSERT_TRUE(C.sendLine("v2 stats"));
  EXPECT_EQ(C.readLine().rfind("v2 stats json=", 0), 0u);
  ASSERT_TRUE(C.sendLine("v2 health"));
  std::string Health = C.readLine();
  EXPECT_EQ(Health.rfind("v2 health healthy=1", 0), 0u) << Health;
}

TEST(SocketServer, V2ErrorsCarryTheTaxonomy) {
  ServerFixture F(/*Threads=*/2, /*HighWater=*/0, /*MaxInflightPerConn=*/1);
  ASSERT_TRUE(F.started());
  TestClient C;
  ASSERT_TRUE(C.connectTo(F.port()));

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
  Stopwatch W;
  ASSERT_TRUE(C.sendLine("v2 submit id=1 pos=A12 sla=150"));
  EXPECT_EQ(C.readLine(), "v2 queued id=1");
  std::string Done = C.readUntil("v2 done ", 5000);
  const double Ms = W.elapsedMs();
  ASSERT_NE(Done, "");
  EXPECT_NE(Done.find(" status=expired "), std::string::npos) << Done;
  // Legacy behaviour waited out the full 1s backstop (and the engine
  // suite's ManualClock tests pin the sweep itself); here the verdict
  // must beat that backstop by a wide margin even on a loaded CI box.
  EXPECT_LT(Ms, 900.0) << "expiry waited for the fixed poll timeout";
  EXPECT_EQ(F.engine().snapshot().JobsExpiredInQueue, 1u);
}

TEST(SocketServer, SlowDescriptionDelaysNoOtherConnection) {
  // so-31's description takes the untrained parser seconds. The parse is
  // the job's first engine task, so while one worker parses it the loop
  // keeps serving: connection A's `queued` ack does not wait for the
  // parse, and connection B's sketch job is answered on the other worker
  // long before the parse ends.
  const std::vector<data::Benchmark> SO = data::stackOverflowSet();
  auto It = std::find_if(SO.begin(), SO.end(), [](const data::Benchmark &B) {
    return B.Id == "so-31";
  });
  ASSERT_NE(It, SO.end());

  ServerFixture F(/*Threads=*/2);
  ASSERT_TRUE(F.started());
  TestClient A, B;
  ASSERT_TRUE(A.connectTo(F.port()));
  ASSERT_TRUE(B.connectTo(F.port()));

  Stopwatch W;
  ASSERT_TRUE(A.sendLine(submitFrame(1, It->Description, It->Initial.Pos,
                                     It->Initial.Neg, /*BudgetMs=*/1000)));
  ASSERT_TRUE(B.sendLine("v2 submit id=5 "
                         "sketch=Concat(<cap>%2CRepeat(<num>%2C2)) "
                         "pos=A12 pos=Z99 neg=12 budget=8000"));
  EXPECT_EQ(A.readLine(), "v2 queued id=1");
  const double AckAMs = W.elapsedMs();
  EXPECT_EQ(B.readLine(), "v2 queued id=5");
  const std::string DoneB = B.readUntil("v2 done ");
  const double DoneBMs = W.elapsedMs();
  EXPECT_NE(DoneB.find("status=solved"), std::string::npos) << DoneB;
  ASSERT_NE(A.readUntil("v2 done ", /*TimeoutMs=*/300000), "");

  const obs::HistogramSnapshot Parse =
      F.engine().registry()->histogramSnapshot("regel_parse_us", "");
  ASSERT_EQ(Parse.Count, 1u) << "exactly A's description was parsed";
  const double ParseMs = static_cast<double>(Parse.SumUs) / 1000.0;
  EXPECT_LT(AckAMs, ParseMs / 2) << "the ack waited for the parse";
  EXPECT_LT(DoneBMs, ParseMs / 2) << "B's job waited for A's parse";
}
