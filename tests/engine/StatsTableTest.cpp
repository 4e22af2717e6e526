//===- tests/engine/StatsTableTest.cpp ------------------------------------===//
//
// Goldens for what the engine's counter table (engine/Stats.h) generates:
// the stats JSON and the exposition's series. Both goldens were produced
// by the hand-written code the table replaced, so they pin the wire
// bytes of `v2 stats` and the series set of `v2 metrics`, which the
// perfbench client parses. A row added or renamed on purpose changes
// them; regenerate the golden in the same change.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace regel::engine;

namespace {

// Every field gets a value no other field has, so a row that reads the
// wrong field, or a key that renders the wrong value, changes the bytes.
StatsSnapshot distinctSnapshot() {
  StatsSnapshot S;
  S.JobsSubmitted = 18446744073709551615ull; // UINT64_MAX: full %llu range
  S.JobsCompleted = 101;
  S.JobsSolved = 102;
  S.JobsRejected = 103;
  S.JobsDeadlineExpired = 104;
  S.JobsResidencyExpired = 105;
  S.JobsShedOnArrival = 106;
  S.JobsExpiredInQueue = 107;
  S.TasksRun = 201;
  S.TasksSkipped = 202;
  S.TasksStopped = 203;
  S.TasksStolen = 204;
  S.TasksRunInteractive = 205;
  S.TasksRunBatch = 206;
  S.TasksRunBackground = 207;
  S.SolutionsFound = 301;
  S.Pops = 401;
  S.Expansions = 402;
  S.PrunedInfeasible = 403;
  S.ConcreteChecked = 404;
  S.SmtIntervalEvals = 405;
  S.SmtSolves = 406;
  S.SmtCacheHits = 407;
  S.SmtUnsatShortCircuits = 408;
  S.SynthMsTotal = 98765.4375;
  S.ApproxStoreHits = 501;
  S.ApproxStoreMisses = 502;
  S.ApproxStoreSize = 503;
  S.ApproxStoreEvictions = 504;
  S.SmtStoreHits = 601;
  S.SmtStoreMisses = 602;
  S.SmtStoreSize = 603;
  S.SmtStoreEvictions = 604;
  S.EstimatorInteractiveMs = 12.345;
  S.EstimatorBatchMs = -1.0; // cold
  S.EstimatorBackgroundMs = 0.125;
  S.EstimatorBlendedMs = 7654.321;
  S.EstimatorSamplesInteractive = 701;
  S.EstimatorSamplesBatch = 702;
  S.EstimatorSamplesBackground = 703;
  return S;
}

} // namespace

TEST(StatsTable, SnapshotJsonMatchesGolden) {
  EXPECT_EQ(distinctSnapshot().toJson(),
      "{\"jobs\":{\"submitted\":18446744073709551615,\"completed\":101,"
      "\"solved\":102,\"rejected\":103,\"shed_on_arrival\":106,"
      "\"expired_in_queue\":107,\"deadline_expired\":104,"
      "\"residency_expired\":105},\"tasks\":{\"run\":201,\"skipped\":202,"
      "\"stopped\":203,\"stolen\":204,\"run_interactive\":205,"
      "\"run_batch\":206,\"run_background\":207},\"solutions\":301,"
      "\"synth\":{\"pops\":401,\"expansions\":402,\"pruned\":403,"
      "\"checked\":404,\"smt_interval_evals\":405,\"smt_solves\":406,"
      "\"smt_cache_hits\":407,\"smt_unsat_short_circuits\":408,"
      "\"total_ms\":98765.4},\"approx_store\":{\"hits\":501,\"misses\":502,"
      "\"size\":503,\"evictions\":504},\"smt_store\":{\"hits\":601,"
      "\"misses\":602,\"size\":603,\"evictions\":604},"
      "\"estimator\":{\"interactive_ms\":12.35,\"batch_ms\":-1.00,"
      "\"background_ms\":0.12,\"blended_ms\":7654.32,"
      "\"samples_interactive\":701,\"samples_batch\":702,"
      "\"samples_background\":703}}");
}

TEST(StatsTable, ColdEstimatesRenderAsMinusOne) {
  // A fresh engine's estimator has no samples: -1 in both renderings.
  Engine Eng(EngineConfig{0, 4, nullptr});
  EXPECT_NE(Eng.snapshot().toJson().find(
                "\"estimator\":{\"interactive_ms\":-1.00,\"batch_ms\":-1.00,"
                "\"background_ms\":-1.00,\"blended_ms\":-1.00,"),
            std::string::npos);
  const std::string Text = Eng.metricsText();
  EXPECT_NE(Text.find("regel_estimator_est_us{pri=\"batch\"} -1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("regel_estimator_blended_est_us -1\n"),
            std::string::npos);
}

TEST(StatsTable, ExpositionSeriesMatchGolden) {
  // Sorted `# TYPE` lines plus every series name (labels included, value
  // dropped) of a fresh engine's exposition.
  Engine Eng(EngineConfig{0, 4, nullptr});
  std::istringstream Text(Eng.metricsText());
  std::vector<std::string> Got;
  std::string Line;
  while (std::getline(Text, Line)) {
    if (Line.rfind("# TYPE ", 0) == 0)
      Got.push_back(Line);
    else if (!Line.empty() && Line[0] != '#')
      Got.push_back(Line.substr(0, Line.rfind(' ')));
  }
  std::sort(Got.begin(), Got.end());

  std::ifstream In(std::string(REGEL_SOURCE_DIR) +
                   "/tests/engine/data/metrics_series.golden");
  ASSERT_TRUE(In.good());
  std::vector<std::string> Want;
  while (std::getline(In, Line))
    Want.push_back(Line);
  EXPECT_EQ(Got, Want);
}
