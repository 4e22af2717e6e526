//===- perfbench/server.cpp - The served configuration under test --------===//
//
// Usage: perfbench_server
//
// The process the benchmark measures: a trained SemanticParser in front of
// one Engine through a LocalService and a SocketServer on an ephemeral
// loopback port, configured like examples/regel_server's defaults (2
// engine workers, cache cap 25000, queue high-water 64) with one backend
// and no DFA tier (so neither src/dfad nor the router is on the served
// path). The only difference is the parser: regel_server serves untrained
// weights, this one trains them first (bench/common's DeepRegex parser),
// and that training is part of the benchmark's set-up time.
//
// Prints exactly one line, "perfbench_server ready port=<N>", once the
// socket is listening; SIGTERM/SIGINT stop the loop.
//
//===----------------------------------------------------------------------===//

#include "common/BenchUtil.h"
#include "engine/Engine.h"
#include "server/SocketServer.h"
#include "service/LocalService.h"

#include <atomic>
#include <csignal>
#include <cstdio>

using namespace regel;

namespace {

constexpr unsigned Threads = 2;
constexpr size_t CacheCap = 25000;
constexpr size_t HighWater = 64;

std::atomic<server::SocketServer *> ActiveServer{nullptr};

void onSignal(int) {
  if (server::SocketServer *S = ActiveServer.load())
    S->stop(); // async-signal-safe by contract
}

} // namespace

int main() {
  std::shared_ptr<nlp::SemanticParser> Parser =
      bench::trainedParserForDeepRegex();

  engine::EngineConfig EC;
  EC.Threads = Threads;
  EC.DfaCacheLimits.MaxEntries = CacheCap;
  EC.DfaCacheLimits.MaxCost = CacheCap * 2 * (1 + regel::AlphabetSize);
  EC.ApproxCacheLimits.MaxEntries = CacheCap;
  EC.MaxQueueDepth = HighWater;
  EC.DeadlineShedding = true;
  auto Svc = std::make_shared<service::LocalService>(
      std::make_shared<engine::Engine>(EC));

  server::ServerConfig SC;
  SC.Port = 0;
  SC.Defaults.NumSketches = 10;
  SC.Defaults.BudgetMs = 5000;
  SC.Defaults.TopK = 1;

  server::SocketServer Server(Parser, Svc, SC);
  if (!Server.start())
    return 1;
  ActiveServer.store(&Server);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::printf("perfbench_server ready port=%u\n", Server.port());
  std::fflush(stdout);

  Server.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  ActiveServer.store(nullptr);
  return 0;
}
