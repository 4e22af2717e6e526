//===- examples/regel_server.cpp - Event-driven synthesis server ----------===//
//
// Build & run:  ./build/examples/regel_server [port] [threads] [cache-cap]
//                                             [high-water] [shed]
//                                             [metrics-every]
//
// The socket front-end over the async engine API (src/server): one
// poll()-based event loop serves every TCP client on [port] (default 7411,
// 0 = ephemeral — the chosen port is printed), while a persistent
// engine::Engine runs the synthesis jobs, so worker threads and the
// cross-run caches (sketch approximations, SMT verdicts) stay warm between
// queries. No thread blocks per outstanding job: `solve` submits and the
// completion is pushed to the client when it lands, so thousands of
// concurrent queries need only the loop thread plus the worker pool.
//
// The caches are capped (second-chance-evicted; [cache-cap] entries each,
// default 25000, 0 = unbounded) so the process can stay up indefinitely,
// and submissions are shed once [high-water] jobs are in flight (default
// 64, 0 = off). With [shed] (default 1), admission is also
// deadline-aware: a query whose `sla` cannot be met at current service
// times gets an instant "shed" verdict instead of expiring in queue, and
// queued jobs expire the moment their SLA lapses. Per-connection
// `priority <interactive|batch|background>` picks the scheduling class,
// so one client's batch fan-out cannot starve another's interactive
// query.
//
// With [metrics-every] N > 0 (default 0 = off) the full Prometheus-style
// metrics exposition is dumped to stdout every N seconds — a poor man's
// scraper for deployments without one. Clients on protocol v2 can fetch
// the same text on demand with a `v2 metrics` frame (and a span trace
// with `v2 trace id=N`); v1 clients see no new frames — the v1 wire
// format stays byte-frozen and a v1 "metrics" line is an ordinary
// unknown-command error.
//
// Try it:
//   ./build/examples/regel_server &
//   nc 127.0.0.1 7411
//   desc a capital letter followed by 2 digits
//   pos A12
//   pos Z99
//   neg 12
//   solve
//
// See src/server/SocketServer.h for the full wire protocol.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "server/SocketServer.h"
#include "service/LocalService.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

using namespace regel;

namespace {

/// Read by the signal handler; cleared (with the handlers restored)
/// before the server is destroyed, so a late Ctrl-C cannot touch a
/// dying object.
std::atomic<server::SocketServer *> ActiveServer{nullptr};

void onSignal(int) {
  if (server::SocketServer *S = ActiveServer.load())
    S->stop(); // async-signal-safe by contract: atomic store + pipe write
}

} // namespace

int main(int argc, char **argv) {
  uint16_t Port = 7411;
  unsigned Threads = 2;
  size_t CacheCap = 25000; // entries per store; 0 = unbounded
  size_t HighWater = 64;   // queue-depth admission mark; 0 = off
  bool Shed = true;        // deadline-aware shedding (0 = lazy expiry only)
  if (argc > 1)
    Port = static_cast<uint16_t>(std::atoi(argv[1]));
  if (argc > 2)
    // Clamp: EngineConfig::Threads = 0 is a test-harness mode (jobs queue
    // but never run) — a serving process must always have a worker.
    Threads = std::max(1u, static_cast<unsigned>(std::atoi(argv[2])));
  if (argc > 3)
    CacheCap = static_cast<size_t>(std::atoll(argv[3]));
  if (argc > 4)
    HighWater = static_cast<size_t>(std::atoll(argv[4]));
  if (argc > 5)
    Shed = std::atoi(argv[5]) != 0;
  long MetricsEverySec = 0; // >0 = periodic exposition dump to stdout
  if (argc > 6)
    MetricsEverySec = std::atol(argv[6]);

  engine::EngineConfig EC;
  EC.Threads = Threads;
  // A long-lived server must bound its memo growth: cap both cross-run
  // stores (approximations and SMT verdicts).
  EC.ApproxCacheLimits.MaxEntries = CacheCap;
  EC.SmtCacheLimits.MaxEntries = CacheCap;
  EC.MaxQueueDepth = HighWater;
  // Deadline-aware admission: clients that set an `sla` get an instant
  // "shed" verdict when the estimator says the budget is hopeless, and
  // queued jobs expire the moment their SLA lapses.
  EC.DeadlineShedding = Shed;

  auto Svc = std::make_shared<service::LocalService>(
      std::make_shared<engine::Engine>(EC));
  auto Parser = std::make_shared<nlp::SemanticParser>();

  server::ServerConfig SC;
  SC.Port = Port;
  SC.Defaults.NumSketches = 10;
  SC.Defaults.BudgetMs = 5000;
  SC.Defaults.TopK = 1;

  server::SocketServer Server(Parser, Svc, SC);
  if (!Server.start())
    return 1;
  ActiveServer.store(&Server);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::printf("regel_server: listening on %s:%u — %u workers, cache cap "
              "%zu, high-water %zu, shedding %s\n",
              SC.BindAddr.c_str(), Server.port(), Threads, CacheCap,
              HighWater, Shed ? "on" : "off");
  std::fflush(stdout);

  // Periodic exposition dump: one background thread, interruptible sleep
  // (a plain sleep_for would stall shutdown by up to a full period).
  std::thread MetricsDumper;
  std::mutex DumpM;
  std::condition_variable DumpCV;
  bool DumpStop = false;
  if (MetricsEverySec > 0) {
    std::printf("regel_server: dumping metrics every %ld s\n",
                MetricsEverySec);
    MetricsDumper = std::thread([&] {
      std::unique_lock<std::mutex> Guard(DumpM);
      while (!DumpCV.wait_for(Guard, std::chrono::seconds(MetricsEverySec),
                              [&] { return DumpStop; })) {
        Guard.unlock();
        std::string Text = Svc->metricsText();
        std::printf("--- metrics ---\n%s--- end metrics ---\n", Text.c_str());
        std::fflush(stdout);
        Guard.lock();
      }
    });
  }

  Server.run();
  if (MetricsDumper.joinable()) {
    {
      std::lock_guard<std::mutex> Guard(DumpM);
      DumpStop = true;
    }
    DumpCV.notify_all();
    MetricsDumper.join();
  }
  // Detach the handlers before Server's destructor runs: a second Ctrl-C
  // during teardown must not call into a half-destroyed object.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  ActiveServer.store(nullptr);
  std::printf("regel_server: shut down\n");
  return 0;
}
