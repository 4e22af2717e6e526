//===- server/SocketServer.cpp --------------------------------------------===//

#include "server/SocketServer.h"

#include "regex/Printer.h"
#include "sketch/SketchParser.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace regel;
using namespace regel::server;
using regel::protocol::ErrorCode;
using regel::protocol::Request;
using regel::protocol::Response;
using regel::protocol::Version;

namespace {

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

Response errorResponse(ErrorCode Err, std::string Detail = "") {
  Response R;
  R.K = Response::Kind::Error;
  R.Err = Err;
  R.Detail = std::move(Detail);
  return R;
}

} // namespace

SocketServer::WakePipe::~WakePipe() {
  if (Rd >= 0)
    ::close(Rd);
  if (Wr >= 0)
    ::close(Wr);
}

SocketServer::SocketServer(std::shared_ptr<const nlp::SemanticParser> Parser,
                           std::shared_ptr<service::LocalService> Svc,
                           ServerConfig Cfg)
    : Parser(std::move(Parser)), Svc(std::move(Svc)), Cfg(std::move(Cfg)) {}

SocketServer::~SocketServer() {
  // In-flight tickets keep running on the engine; cancel them so they
  // stop burning workers for clients nobody will answer, then drain OUR
  // remaining completions (run() routes what it drains in the same turn,
  // so Pending is exactly the not-yet-drained set): a shared long-lived
  // service must not be left holding orphaned completions. Cancelled
  // jobs finish fast (queued tasks skip, running searches stop at their
  // next poll) and SLA-carrying jobs are expired eagerly by the engine's
  // own deadline sweep, so the loop is short; the real-time cap is only
  // a belt against an engine wedged elsewhere.
  if (Svc) {
    for (const auto &KV : Pending)
      Svc->cancel(KV.first);
    // Drain with non-blocking polls + real sleeps: pollCompleted never
    // blocks, so the real-time cap holds whatever clock the engine runs
    // on (a frozen ManualClock included).
    const Stopwatch Drain; // real time
    while (!Pending.empty() && Drain.elapsedMs() < 60000) {
      for (const service::Completion &C : Svc->pollCompleted())
        Pending.erase(C.Id);
      if (!Pending.empty())
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // Detach the wakeup: the service may outlive this server and be
    // handed to another front-end.
    Svc->setWakeup(nullptr);
  }
  Pending.clear();
  for (auto &KV : Connections)
    if (KV.second.Fd >= 0)
      ::close(KV.second.Fd);
  Connections.clear();
  if (ListenFd >= 0)
    ::close(ListenFd);
}

bool SocketServer::start() {
  auto Pipe = std::make_shared<WakePipe>();
  int PipeFds[2];
  if (::pipe(PipeFds) != 0) {
    std::fprintf(stderr, "socket server: pipe failed: %s\n",
                 std::strerror(errno));
    return false;
  }
  Pipe->Rd = PipeFds[0];
  Pipe->Wr = PipeFds[1];
  setNonBlocking(Pipe->Rd);
  setNonBlocking(Pipe->Wr);
  Wake = std::move(Pipe);
  WakeWrFd.store(Wake->Wr, std::memory_order_release);

  // The service's wakeup hook is the only cross-thread touch point: it
  // writes one byte so a completion breaks poll() immediately. The pipe
  // is captured by shared ownership, so even a completion that outlives
  // the server writes a still-open fd.
  Svc->setWakeup([Pipe = Wake] {
    char B = 'c';
    (void)!::write(Pipe->Wr, &B, 1);
  });

  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    std::fprintf(stderr, "socket server: socket failed: %s\n",
                 std::strerror(errno));
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Cfg.Port);
  if (::inet_pton(AF_INET, Cfg.BindAddr.c_str(), &Addr.sin_addr) != 1) {
    std::fprintf(stderr, "socket server: bad bind address '%s'\n",
                 Cfg.BindAddr.c_str());
    return false;
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    std::fprintf(stderr, "socket server: bind to %s:%u failed: %s\n",
                 Cfg.BindAddr.c_str(), Cfg.Port, std::strerror(errno));
    return false;
  }
  if (::listen(ListenFd, Cfg.Backlog) != 0) {
    std::fprintf(stderr, "socket server: listen failed: %s\n",
                 std::strerror(errno));
    return false;
  }
  socklen_t Len = sizeof(Addr);
  ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len);
  BoundPort = ntohs(Addr.sin_port);
  setNonBlocking(ListenFd);
  return true;
}

void SocketServer::stop() {
  // Only async-signal-safe operations here (see the header contract): an
  // atomic store and a write() on a pre-fetched fd — never the
  // shared_ptr, whose copy is not signal-safe.
  Stopping.store(true, std::memory_order_release);
  int Fd = WakeWrFd.load(std::memory_order_acquire);
  if (Fd >= 0) {
    char B = 'q';
    // Best effort; a full pipe already guarantees a pending wakeup.
    (void)!::write(Fd, &B, 1);
  }
}

void SocketServer::drainWakePipe() {
  char Buf[256];
  while (::read(Wake->Rd, Buf, sizeof(Buf)) > 0) {
  }
}

int SocketServer::pollTimeoutMs() const {
  // 1s is the keep-alive backstop against a lost wakeup. With jobs in
  // flight, bound it by the service's earliest residency deadline so the
  // next loop turn — whose pollCompleted() sweeps the engine's deadline
  // heap — runs the moment an SLA lapses, not up to a second later. This
  // is the timer-driven half of eager expiry; submit/dispatch/poll
  // events remain the event-driven half. With nothing pending there is
  // no verdict to deliver, so skip the health read entirely.
  if (Pending.empty())
    return 1000;
  const service::ServiceHealth H = Svc->health();
  if (H.NextDeadlineDeltaMs < 0)
    return 1000;
  return static_cast<int>(
      std::min<int64_t>(std::max<int64_t>(H.NextDeadlineDeltaMs, 1), 1000));
}

void SocketServer::run() {
  std::vector<pollfd> Fds;
  std::vector<uint64_t> FdConn; // conn id per Fds slot (0 for the fixed fds)
  while (!Stopping.load(std::memory_order_acquire)) {
    if (ListenPaused && ListenBackoff.elapsedMs() > 100)
      ListenPaused = false;
    Fds.clear();
    FdConn.clear();
    // A paused listener (hard accept failure, e.g. EMFILE) stays in the
    // set with no events so slot indices are stable, but its pending
    // backlog entry cannot turn poll() into a busy spin.
    Fds.push_back({ListenFd, static_cast<short>(ListenPaused ? 0 : POLLIN),
                   0});
    FdConn.push_back(0);
    Fds.push_back({Wake->Rd, POLLIN, 0});
    FdConn.push_back(0);
    for (auto &KV : Connections) {
      // A connection that hit EOF or its abuse guard is write-only from
      // here on: not polling POLLIN stops its input from growing our
      // buffer (POLLERR/POLLHUP are reported regardless of the mask).
      short Events = KV.second.DiscardInput ? 0 : POLLIN;
      if (KV.second.outPending() > 0)
        Events |= POLLOUT;
      Fds.push_back({KV.second.Fd, Events, 0});
      FdConn.push_back(KV.first);
    }

    // The self-pipe makes completions prompt; the timeout backstops a
    // lost wakeup and doubles as the deadline-sweep timer.
    int N = ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()),
                   pollTimeoutMs());
    if (N < 0 && errno != EINTR)
      break;

    drainWakePipe();
    for (const service::Completion &C : Svc->pollCompleted())
      routeCompletion(C);

    if (Fds[0].revents & POLLIN)
      acceptClients();

    // Replies are queued per frame and sent once per connection per
    // phase: completions and greetings here, before this turn's reads
    // (which may parse for a while), and each connection's own replies
    // right after its input is handled. A send per frame would put each
    // frame in its own segment under TCP_NODELAY. This pass also drains
    // what an earlier turn's short send left behind.
    for (auto &KV : Connections)
      flushOutput(KV.second);

    for (size_t I = 2; I < Fds.size(); ++I) {
      auto It = Connections.find(FdConn[I]);
      if (It == Connections.end())
        continue; // closed earlier this turn
      Connection &C = It->second;
      if (Fds[I].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        closeConnection(C.Id);
        continue;
      }
      if (Fds[I].revents & POLLIN) {
        readClient(C);
        flushOutput(C);
      }
    }

    // Deferred closes: dead sockets, and quit/EOF/overflow connections
    // whose goodbye bytes are out and whose completions have all landed.
    std::vector<uint64_t> ToClose;
    for (auto &KV : Connections)
      if (KV.second.Dead ||
          (KV.second.CloseAfterFlush && KV.second.outPending() == 0 &&
           KV.second.InFlight.empty()))
        ToClose.push_back(KV.first);
    for (uint64_t Id : ToClose)
      closeConnection(Id);
  }

  // Shutdown: flush what we can without blocking; the destructor cancels
  // whatever is still in flight.
  for (auto &KV : Connections)
    flushOutput(KV.second);
}

void SocketServer::acceptClients() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED)
        continue; // transient; try the next backlog entry
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        // Hard failure (EMFILE/ENFILE/...): the backlog entry stays
        // pending and would re-trigger POLLIN every turn, so take the
        // listener out of the poll set briefly instead of spinning.
        ListenPaused = true;
        ListenBackoff.reset();
      }
      return;
    }
    setNonBlocking(Fd);
    // Replies are small and latency-bound, and the loop batches them
    // itself: Nagle would only hold a reply back until the client's
    // delayed ACK (40 ms on Linux).
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    if (Cfg.MaxConnections && Connections.size() >= Cfg.MaxConnections) {
      std::string Msg =
          protocol::encodeResponse(errorResponse(ErrorCode::ServerFull),
                                   Version::V1) +
          "\n";
      (void)::send(Fd, Msg.data(), Msg.size(), MSG_NOSIGNAL);
      ::close(Fd);
      continue;
    }
    Connection C;
    C.Fd = Fd;
    C.Id = NextConnId++;
    C.Cfg = Cfg.Defaults;
    uint64_t Id = C.Id;
    auto Inserted = Connections.emplace(Id, std::move(C));
    NumConnections.store(Connections.size(), std::memory_order_relaxed);
    Response Hello;
    Hello.K = Response::Kind::Greeting;
    respond(Inserted.first->second, Hello, Version::V1);
  }
}

void SocketServer::readClient(Connection &C) {
  char Buf[4096];
  // Bounded drain per turn: a client pumping data at loopback speed must
  // not pin the loop thread in this recv cycle — leftovers keep the fd
  // readable and poll() hands us back here next turn, after everyone
  // else had theirs.
  for (int Round = 0; Round < 16; ++Round) {
    ssize_t Got = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (Got == 0) {
      // Orderly shutdown from the peer. TCP cannot tell a full close()
      // from shutdown(SHUT_WR)-and-still-reading, so treat EOF as the
      // half-close idiom: commands already buffered still run, answers
      // still flush, and the connection closes once everything lands.
      // An abandoned connection is bounded anyway — input is discarded,
      // output is capped, in-flight work expires on its own budget/SLA,
      // and a write to a truly-gone peer draws an RST that marks the
      // connection Dead (closing it and cancelling the remainder).
      C.DiscardInput = true;
      C.CloseAfterFlush = true;
      break;
    }
    if (Got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      C.Dead = true; // hard error; the loop closes it at a safe point
      return;
    }
    C.In.append(Buf, static_cast<size_t>(Got));
    if (Cfg.MaxLineBytes && C.In.size() > Cfg.MaxLineBytes &&
        C.In.find('\n') == std::string::npos) {
      // Guard tripped: stop reading this client entirely (the loop drops
      // POLLIN for it), discard what it sent, and cancel its in-flight
      // work — the connection only lingers to flush the error line and
      // let the (now cancelled) completions land.
      C.CloseAfterFlush = true;
      C.DiscardInput = true;
      C.In.clear();
      C.In.shrink_to_fit();
      cancelInFlight(C);
      respond(C, errorResponse(ErrorCode::LineTooLong), Version::V1);
      return;
    }
  }
  // Consume complete lines; a trailing partial line stays buffered. An
  // EOF above pre-set CloseAfterFlush, and those already-received lines
  // must still run — only an explicit quit (QuitSeen, set by handleLine,
  // distinct from the EOF close reason) discards the rest of the input,
  // even when the quit and the EOF arrive in the same read burst.
  size_t Start = 0;
  for (;;) {
    size_t Nl = C.In.find('\n', Start);
    if (Nl == std::string::npos)
      break;
    std::string Line = C.In.substr(Start, Nl - Start);
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    Start = Nl + 1;
    handleLine(C, Line);
    if (C.Dead)
      break;
    if (C.QuitSeen) {
      C.DiscardInput = true;
      Start = C.In.size();
      break;
    }
  }
  C.In.erase(0, Start);
}

void SocketServer::handleLine(Connection &C, const std::string &Line) {
  Request Req;
  const ErrorCode Err = protocol::decodeRequest(Line, Req);
  if (Req.V == Version::V2)
    handleV2(C, Req, Err);
  else
    handleV1(C, Req, Err);
}

void SocketServer::handleV1(Connection &C, const Request &Req,
                            ErrorCode Err) {
  if (Err != ErrorCode::None) {
    // The codec hands back the offending token (command name / priority
    // text) so the historical free-text errors stay byte-identical.
    respond(C, errorResponse(Err, Req.Text), Version::V1);
    return;
  }
  Response Ok;
  Ok.K = Response::Kind::Ok;
  switch (Req.K) {
  case Request::Kind::None:
    return;
  case Request::Kind::Quit: {
    C.QuitSeen = true;
    C.CloseAfterFlush = true;
    Response Bye;
    Bye.K = Response::Kind::Bye;
    respond(C, Bye, Version::V1);
    return;
  }
  case Request::Kind::Help: {
    Response Help;
    Help.K = Response::Kind::Help;
    respond(C, Help, Version::V1);
    return;
  }
  case Request::Kind::Desc:
    C.Description = Req.Text;
    respond(C, Ok, Version::V1);
    return;
  case Request::Kind::Pos:
    C.E.Pos.push_back(Req.Text);
    respond(C, Ok, Version::V1);
    return;
  case Request::Kind::Neg:
    C.E.Neg.push_back(Req.Text);
    respond(C, Ok, Version::V1);
    return;
  case Request::Kind::TopK:
    C.Cfg.TopK = static_cast<unsigned>(
        std::max<int64_t>(1, Req.Int));
    respond(C, Ok, Version::V1);
    return;
  case Request::Kind::Budget:
    C.Cfg.BudgetMs = std::max<int64_t>(1, Req.Int);
    respond(C, Ok, Version::V1);
    return;
  case Request::Kind::Sla:
    C.Cfg.ResidencyBudgetMs = std::max<int64_t>(0, Req.Int);
    respond(C, Ok, Version::V1);
    return;
  case Request::Kind::Priority:
    C.Cfg.Pri = Req.Pri;
    respond(C, Ok, Version::V1);
    return;
  case Request::Kind::Clear:
    C.Description.clear();
    C.E = Examples();
    respond(C, Ok, Version::V1);
    return;
  case Request::Kind::Stats: {
    Response R;
    R.K = Response::Kind::Stats;
    R.Detail = Svc->statsJson();
    respond(C, R, Version::V1);
    return;
  }
  case Request::Kind::Solve:
    submitSolve(C);
    return;
  case Request::Kind::Submit:
  case Request::Kind::Cancel:
  case Request::Kind::Health:
  case Request::Kind::Metrics:
  case Request::Kind::Trace:
    // Unreachable: the decoder only produces these for v2 frames. (A v1
    // "metrics" line is an UnknownCommand error upstream — v1 stays
    // byte-frozen; telemetry is v2-only.)
    respond(C, errorResponse(ErrorCode::UnknownCommand, ""), Version::V1);
    return;
  }
}

void SocketServer::trackTicket(Connection &C, service::Ticket T,
                               uint64_t WireId, Version V) {
  Pending[T] = {C.Id, WireId, V};
  C.InFlight.push_back(T);
}

void SocketServer::submitSolve(Connection &C) {
  if (C.E.Pos.empty() && C.Description.empty()) {
    respond(C, errorResponse(ErrorCode::NothingToSolve), Version::V1);
    return;
  }
  if (Cfg.MaxInflightPerConn &&
      C.InFlight.size() >= Cfg.MaxInflightPerConn) {
    // The per-connection cap: this client already holds its share of the
    // engine's queue slots; finish (or read) something first. Answered
    // inline so the client learns immediately, without burning a slot.
    respond(C, errorResponse(ErrorCode::Busy), Version::V1);
    return;
  }
  const uint64_t JobId = NextJobId++;

  // The ticket carries the description; the job's first engine task
  // parses it on a worker (a parse can take seconds), and the pipeline is
  // the Regel driver's own, so wire queries search exactly the sketch
  // lists API queries do.
  service::Ticket T =
      Svc->submit(buildJobRequest(C.Cfg, Parser, C.Description, C.E));
  trackTicket(C, T, JobId, Version::V1);

  Response R;
  R.K = Response::Kind::Queued;
  R.Id = JobId;
  respond(C, R, Version::V1);
  // The job may already be complete (e.g. rejected by admission
  // control): its completion is drained on the next loop turn either way
  // — the service wakeup byte guarantees one.
}

void SocketServer::handleV2(Connection &C, const Request &Req,
                            ErrorCode Err) {
  if (Err != ErrorCode::None) {
    // Echo whatever id the decoder recovered (it parses id before the
    // failing field in well-formed-prefix frames), so a machine client
    // fails exactly that ticket instead of hanging it.
    Response R = errorResponse(Err, Req.Text);
    R.Id = Req.Id;
    respond(C, R, Version::V2);
    return;
  }
  switch (Req.K) {
  case Request::Kind::Submit:
    submitV2(C, Req);
    return;
  case Request::Kind::Cancel: {
    for (service::Ticket T : C.InFlight) {
      auto It = Pending.find(T);
      if (It != Pending.end() && It->second.V == Version::V2 &&
          It->second.JobId == Req.Id) {
        Svc->cancel(T);
        Response Ok;
        Ok.K = Response::Kind::Ok;
        respond(C, Ok, Version::V2);
        return;
      }
    }
    Response NotFound = errorResponse(ErrorCode::UnknownId);
    NotFound.Id = Req.Id;
    respond(C, NotFound, Version::V2);
    return;
  }
  case Request::Kind::Stats: {
    Response R;
    R.K = Response::Kind::Stats;
    R.Detail = Svc->statsJson();
    respond(C, R, Version::V2);
    return;
  }
  case Request::Kind::Health: {
    const service::ServiceHealth H = Svc->health();
    Response R;
    R.K = Response::Kind::Health;
    // R.Healthy keeps its default: an in-process service is always up.
    R.QueueDepth = H.QueueDepth;
    R.Workers = H.Workers;
    R.EstWaitMs = H.EstWaitMs;
    R.NextDeadlineMs = H.NextDeadlineDeltaMs;
    respond(C, R, Version::V2);
    return;
  }
  case Request::Kind::Metrics: {
    Response R;
    R.K = Response::Kind::Metrics;
    R.Detail = Svc->metricsText();
    // A registry can outgrow one frame (escaping triples the worst
    // case); a client must get a taxonomy error it can parse, never a
    // frame its own decoder rejects as oversized.
    if (protocol::encodeResponse(R, Version::V2).size() >
        protocol::MaxFrameBytes) {
      respond(C, errorResponse(ErrorCode::Oversized, "metrics exposition"),
              Version::V2);
      return;
    }
    respond(C, R, Version::V2);
    return;
  }
  case Request::Kind::Trace: {
    // Always a trace frame, empty json for an unknown id — NOT an
    // unknown_id error: error frames carry ticket ids, and a trace id
    // landing in that namespace could fail an innocent in-flight job on
    // a client matching errors by id.
    Response R;
    R.K = Response::Kind::Trace;
    R.Id = Req.Id;
    R.Detail = Svc->traceJson(Req.Id);
    if (protocol::encodeResponse(R, Version::V2).size() >
        protocol::MaxFrameBytes) {
      respond(C, errorResponse(ErrorCode::Oversized, "trace json"),
              Version::V2);
      return;
    }
    respond(C, R, Version::V2);
    return;
  }
  default:
    respond(C, errorResponse(ErrorCode::UnknownCommand, Req.Text),
            Version::V2);
    return;
  }
}

void SocketServer::submitV2(Connection &C, const Request &Req) {
  // Submit-context errors echo the frame's id (the codec's optional
  // `id=` on error responses), so a machine client can fail exactly
  // that ticket instead of waiting for a completion that never comes.
  auto Refuse = [&](ErrorCode Err, std::string Detail = "") {
    Response R = errorResponse(Err, std::move(Detail));
    R.Id = Req.Id;
    respond(C, R, Version::V2);
  };
  // The wire id namespace is per connection and per version; a reused id
  // with a job still in flight would make its completions ambiguous.
  for (service::Ticket T : C.InFlight) {
    auto It = Pending.find(T);
    if (It != Pending.end() && It->second.V == Version::V2 &&
        It->second.JobId == Req.Id) {
      Refuse(ErrorCode::DuplicateId);
      return;
    }
  }
  if (Cfg.MaxInflightPerConn &&
      C.InFlight.size() >= Cfg.MaxInflightPerConn) {
    Refuse(ErrorCode::Busy);
    return;
  }

  // Explicit sketches take precedence (the client already holds parsed
  // sketches); otherwise the description goes to the engine through the
  // same parser pipeline as v1 solve.
  std::vector<SketchPtr> Sketches;
  for (const std::string &Text : Req.Sketches) {
    std::string ParseErr;
    SketchPtr S = parseSketch(Text, &ParseErr);
    if (!S) {
      Refuse(ErrorCode::BadArgument, "sketch: " + ParseErr);
      return;
    }
    Sketches.push_back(std::move(S));
  }
  if (Sketches.empty() && Req.Text.empty() && Req.Pos.empty()) {
    Refuse(ErrorCode::NothingToSolve);
    return;
  }

  // ONE request builder for every path: start from what a v1 solve on
  // this connection would submit (buildJobRequest over the connection
  // defaults — including the default residency SLA), then apply only
  // the fields the frame explicitly set. A new JobRequest knob added to
  // buildJobRequest is inherited here automatically instead of being
  // silently dropped on the wire path.
  Examples E;
  E.Pos = Req.Pos;
  E.Neg = Req.Neg;
  engine::JobRequest R =
      Sketches.empty() ? buildJobRequest(C.Cfg, Parser, Req.Text, E)
                       : buildJobRequest(C.Cfg, std::move(Sketches), E);
  if (Req.TopK > 0)
    R.TopK = Req.TopK;
  if (Req.HasPri)
    R.Pri = Req.Pri;
  if (Req.BudgetMs >= 0)
    R.BudgetMs = Req.BudgetMs;
  if (Req.PerSketchBudgetMs > 0)
    R.PerSketchBudgetMs = Req.PerSketchBudgetMs;
  if (Req.SlaMs >= 0) // sla=0 explicitly disables the default SLA
    R.ResidencyBudgetMs = Req.SlaMs;
  if (Req.MaxPops > 0)
    R.Synth.MaxPops = Req.MaxPops;
  if (Req.HasDet)
    R.Deterministic = Req.Deterministic;
  R.Tag = Req.Tag;

  service::Ticket T = Svc->submit(std::move(R));
  trackTicket(C, T, Req.Id, Version::V2);

  Response Ack;
  Ack.K = Response::Kind::Queued;
  Ack.Id = Req.Id;
  respond(C, Ack, Version::V2);
}

void SocketServer::routeCompletion(const service::Completion &Done) {
  auto PIt = Pending.find(Done.Id);
  if (PIt == Pending.end())
    return; // not ours (stale entry already reclaimed)
  PendingJob P = PIt->second;
  Pending.erase(PIt);

  auto CIt = Connections.find(P.ConnId);
  if (CIt == Connections.end())
    return; // client left before its answer arrived
  Connection &C = CIt->second;
  for (size_t I = 0; I < C.InFlight.size(); ++I)
    if (C.InFlight[I] == Done.Id) {
      C.InFlight.erase(C.InFlight.begin() + static_cast<ptrdiff_t>(I));
      break;
    }

  const engine::JobResult &R = Done.Result;
  std::string Msg;
  for (const RegelAnswer &A : R.Answers) {
    Response Ans;
    Ans.K = Response::Kind::Answer;
    Ans.Id = P.JobId;
    Ans.Rank = A.SketchRank;
    Ans.Detail = printRegex(A.Regex);
    Msg += protocol::encodeResponse(Ans, P.V);
    Msg += '\n';
  }
  Response Fin;
  Fin.K = Response::Kind::Done;
  Fin.Id = P.JobId;
  Fin.Status = protocol::verdictName(R);
  Fin.TotalMs = R.TotalMs;
  Fin.ExecMs = R.ExecMs;
  Fin.QueueMs = R.QueueMs;
  Fin.Answers = static_cast<unsigned>(R.Answers.size());
  Fin.TraceId = R.TraceId; // v2 emits trace= when retained; v1 unchanged
  Msg += protocol::encodeResponse(Fin, P.V);
  Msg += '\n';
  queueOutput(C, Msg);
}

void SocketServer::respond(Connection &C, const Response &R, Version V) {
  std::string Line = protocol::encodeResponse(R, V);
  if (Line.empty())
    return;
  Line += '\n';
  queueOutput(C, Line);
}

void SocketServer::queueOutput(Connection &C, const std::string &Text) {
  // Frames wait for the loop's next flush. A batch that would overrun
  // the cap first hands the kernel what it takes, so the guard still
  // only trips on a client that is not reading.
  if (Cfg.MaxOutBytes && C.outPending() + Text.size() > Cfg.MaxOutBytes)
    flushOutput(C);
  if (C.Dead)
    return;
  if (Cfg.MaxOutBytes && C.outPending() + Text.size() > Cfg.MaxOutBytes) {
    // The client is not reading: drop it rather than buffer without
    // bound. Dead connections are closed by the loop's next sweep (which
    // also cancels their in-flight jobs via closeConnection).
    C.Dead = true;
    C.Out.clear();
    C.OutOff = 0;
    return;
  }
  C.Out += Text;
}

void SocketServer::flushOutput(Connection &C) {
  while (C.outPending() > 0 && !C.Dead) {
    ssize_t Sent = ::send(C.Fd, C.Out.data() + C.OutOff, C.outPending(),
                          MSG_NOSIGNAL);
    if (Sent > 0) {
      // Advance the offset instead of erasing the sent prefix: a slow
      // reader draining a big buffer in 4KB rounds must not memmove the
      // whole tail every round (that is quadratic in the buffer size).
      C.OutOff += static_cast<size_t>(Sent);
      if (C.OutOff == C.Out.size()) {
        C.Out.clear();
        C.OutOff = 0;
      } else if (C.OutOff >= (1u << 16)) {
        // Reclaim the sent prefix once it is sizeable: one erase per 64KB
        // sent keeps the drain linear while stopping a never-quite-empty
        // buffer from accreting its own history.
        C.Out.erase(0, C.OutOff);
        C.OutOff = 0;
      }
      continue;
    }
    if (Sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return; // poll() will raise POLLOUT when the socket drains
    // Hard error: mark only — the loop closes it at a safe point, so
    // callers holding a reference to C are never left dangling.
    C.Dead = true;
    C.Out.clear();
    C.OutOff = 0;
  }
}

void SocketServer::cancelInFlight(Connection &C) {
  // Cancel exactly this connection's tickets (their Pending entries stay
  // until the completion routes, then drop). Scanning the global Pending
  // map here would be O(every in-flight job on the server) per teardown.
  for (service::Ticket T : C.InFlight)
    Svc->cancel(T);
}

void SocketServer::closeConnection(uint64_t ConnId) {
  auto It = Connections.find(ConnId);
  if (It == Connections.end())
    return;
  if (It->second.Fd >= 0)
    ::close(It->second.Fd);
  // In-flight tickets of this connection stay in Pending; their
  // completions route to a missing connection and are dropped. Cancel
  // them so they stop burning workers for a client that is gone.
  cancelInFlight(It->second);
  Connections.erase(It);
  NumConnections.store(Connections.size(), std::memory_order_relaxed);
}
