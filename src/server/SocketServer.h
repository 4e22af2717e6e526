//===- server/SocketServer.h - Event-driven synthesis front-end -*- C++ -*-===//
//
// Part of the Regel reproduction. A single-threaded, poll()-based TCP
// front-end over the ticket-based service::LocalService API. The server
// never touches an engine directly: it submits tickets to the service,
// and one event loop handles every client:
//
//   * the listening socket, a wakeup pipe, and all client sockets are
//     non-blocking and multiplexed through poll();
//   * `v2 submit` decodes on the loop thread and submits a ticket
//     tagged with the connection; a description is parsed into sketches
//     by the job's first engine task, on a worker, so the loop blocks on
//     neither parsing nor synthesis;
//   * the service's wakeup hook writes one byte to the wakeup pipe, so a
//     completion immediately breaks the poll() instead of waiting out its
//     timeout;
//   * woken, the loop drains LocalService::pollCompleted(), routes each
//     completion to its connection, and queues the response lines;
//   * the poll() timeout itself is deadline-driven: it is bounded by the
//     service's NextDeadlineDeltaMs, and pollCompleted() runs the
//     engine's residency-deadline sweep, so a queued SLA job expires the
//     moment its SLA lapses even when no dispatch/submit event would have
//     swept it — the timer half of eager expiry (poll-timeout standing in
//     for a timerfd; same loop, no extra fd).
//
// A submit's `pri=` selects the job's scheduling class, and
// MaxInflightPerConn bounds how many unfinished jobs one connection may
// hold: a chatty client pipelining submits gets `v2 error code=busy`
// instead of monopolizing the engine's queue slots.
//
// Concurrency contract: this class owns NO mutexes, by design — all
// mutable state belongs to the loop thread (the caller of run()). The
// only members other threads may touch are the std::atomic fields below
// (stop() flips Stopping and pokes the wakeup pipe; connectionCount()
// reads a published snapshot), and the service wakeup hook only ever
// writes one byte to the self-pipe. Anything else is loop-thread-only,
// which is why the thread-safety annotation pass (support/
// ThreadAnnotations.h) has nothing to annotate here: there is no lock
// whose protocol could be violated. Keep it that way — new cross-thread
// state must be an atomic or must move behind the pipe.
//
// Wire protocol (full spec in docs/PROTOCOL.md; codec in
// service/Protocol.h): line-oriented, '\n'-terminated `v2` frames.
// Connections are stateless: every `v2 submit` carries its whole query
// (client-chosen id, description or sketches, examples, budgets) and is
// acknowledged `v2 queued id=<id>`; its completion arrives later as
// `v2 answer` lines and one `v2 done`. A line that is not a v2 frame,
// and every refusal (malformed frame, busy, server full, line too long),
// is answered with a `v2 error code=<taxonomy>` frame; an empty line is
// ignored.
//
//===----------------------------------------------------------------------===//

#ifndef REGEL_SERVER_SOCKETSERVER_H
#define REGEL_SERVER_SOCKETSERVER_H

#include "core/Regel.h"
#include "service/LocalService.h"
#include "service/Protocol.h"
#include "support/Timer.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace regel::server {

struct ServerConfig {
  /// TCP port to bind (0 = ephemeral; read the choice back via port()).
  uint16_t Port = 0;
  /// Bind address. Loopback by default: this is a demo seam, not a
  /// hardened public endpoint.
  std::string BindAddr = "127.0.0.1";
  int Backlog = 64;
  /// Connections beyond this are accepted and immediately closed with a
  /// `v2 error code=server_full` frame (0 = unlimited).
  size_t MaxConnections = 256;
  /// A connection whose pending input line exceeds this many bytes is
  /// dropped (slowloris / unbounded-buffer guard).
  size_t MaxLineBytes = 1 << 16;
  /// A connection whose queued-but-unread output exceeds this many bytes
  /// is dropped (a client that pipelines requests without ever reading
  /// must not grow server memory without bound).
  size_t MaxOutBytes = 1 << 20;
  /// Unfinished jobs one connection may hold in flight (0 = unlimited).
  /// The submit beyond this answers `code=busy` immediately, so a
  /// single pipelining client cannot monopolize the engine's queue-depth
  /// budget that every connection shares.
  size_t MaxInflightPerConn = 32;
  /// Defaults a submit starts from; its frame overrides what it sets.
  RegelConfig Defaults;
};

/// The poll()-based front-end. Construction binds nothing; start() opens
/// the listening socket, run() drives the loop until stop() is called
/// (from any thread, e.g. a signal handler or a test).
///
/// The server registers itself as the service's poller and wakeup target;
/// nothing else may poll the same service instance. Other services and
/// handle-based clients of the engine underneath are unaffected.
class SocketServer {
public:
  /// Serves \p Svc. \p Parser turns submit `desc=` fields into sketches, on the engine's workers (see
  /// regel::buildJobRequest); it must not be retrained while serving.
  SocketServer(std::shared_ptr<const nlp::SemanticParser> Parser,
               std::shared_ptr<service::LocalService> Svc, ServerConfig Cfg);

  ~SocketServer();

  SocketServer(const SocketServer &) = delete;
  SocketServer &operator=(const SocketServer &) = delete;

  /// Opens listener + wakeup pipe and installs the service wakeup hook.
  /// Returns false (with a message on stderr) when binding fails.
  bool start();

  /// The bound port (valid after start(); resolves Port = 0 requests).
  uint16_t port() const { return BoundPort; }

  /// Runs the event loop on the calling thread until stop(). start()
  /// must have succeeded.
  void run();

  /// Asks the loop to exit. Thread-safe AND async-signal-safe while the
  /// server object is alive (an atomic store plus a pipe write — nothing
  /// else), so it may be called from a signal handler; un-register the
  /// handler before destroying the server. Pending responses are flushed
  /// on the way down; in-flight jobs are cancelled.
  void stop();

  /// Currently open client connections (loop thread owns the value;
  /// other threads get a snapshot).
  size_t connectionCount() const {
    return NumConnections.load(std::memory_order_relaxed);
  }

private:
  struct Connection {
    int Fd = -1;
    uint64_t Id = 0;
    std::string In;  ///< bytes read, not yet broken into lines
    std::string Out; ///< bytes queued, not yet written past OutOff
    size_t OutOff = 0; ///< already-sent prefix of Out (compacted lazily,
                       ///< so a partial drain never memmoves the tail)
    bool CloseAfterFlush = false; ///< close once Out drains and jobs land
    bool Dead = false; ///< hard I/O error; loop closes it next turn
    bool DiscardInput = false; ///< stop polling POLLIN (EOF or abuse guard)
    /// This connection's unfinished tickets, so teardown cancels exactly
    /// its own work instead of scanning every pending job on the server.
    std::vector<service::Ticket> InFlight;

    size_t outPending() const { return Out.size() - OutOff; }
  };

  /// What pollCompleted results route back through.
  struct PendingJob {
    uint64_t ConnId = 0;
    uint64_t JobId = 0; ///< client-chosen wire id
  };

  /// The self-pipe, shared with the service wakeup hook: the fds close
  /// when the last closure capturing it is destroyed, so a completion
  /// can never write into a recycled descriptor even if the server
  /// object is long gone.
  struct WakePipe {
    int Rd = -1, Wr = -1;
    ~WakePipe();
  };

  void handleLine(Connection &C, const std::string &Line);
  void submitV2(Connection &C, const protocol::Request &Req);
  void routeCompletion(const service::Completion &Done);
  void respond(Connection &C, const protocol::Response &R);
  /// Appends \p Text for the loop's next flush (MaxOutBytes guard).
  void queueOutput(Connection &C, const std::string &Text);
  void flushOutput(Connection &C);
  void acceptClients();
  void readClient(Connection &C);
  void closeConnection(uint64_t ConnId);
  void cancelInFlight(Connection &C);
  void drainWakePipe();
  /// poll() timeout for this turn: the 1s keep-alive backstop, bounded
  /// by the service's next residency deadline so eager expiry fires on
  /// time (the timer-driven half of the deadline sweep).
  int pollTimeoutMs() const;

  std::shared_ptr<const nlp::SemanticParser> Parser;
  std::shared_ptr<service::LocalService> Svc;
  ServerConfig Cfg;

  int ListenFd = -1;
  std::shared_ptr<WakePipe> Wake; ///< self-pipe: completions poke the loop
  std::atomic<int> WakeWrFd{-1};  ///< Wake->Wr, readable from stop()
                                  ///< without touching the shared_ptr
  uint16_t BoundPort = 0;
  std::atomic<bool> Stopping{false};
  std::atomic<size_t> NumConnections{0};

  uint64_t NextConnId = 1;
  /// After a hard accept() failure (EMFILE and friends) the listener is
  /// left out of the poll set until this stopwatch passes the backoff, so
  /// a pending backlog entry cannot busy-spin the loop. Deliberately REAL
  /// time, not the engine's clock seam: accept backoff is I/O plumbing
  /// that must keep moving even under a frozen ManualClock.
  Stopwatch ListenBackoff;
  bool ListenPaused = false;
  std::unordered_map<uint64_t, Connection> Connections; ///< by conn id
  /// Loop-thread-only: ticket -> routing info. The service wakeup hook
  /// never touches this (it only writes the pipe), so no lock is needed.
  std::unordered_map<service::Ticket, PendingJob> Pending;
};

} // namespace regel::server

#endif // REGEL_SERVER_SOCKETSERVER_H
