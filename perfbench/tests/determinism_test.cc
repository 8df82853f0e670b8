// The benchmark's own tests: simulator phases are deterministic, tracing is
// passive, and the layer-coverage anchors of anchors.json hold.
#include <gtest/gtest.h>

#include "report.h"
#include "workload.h"

namespace perfbench {
namespace {

/// A run with no time budget: its minimum phase count, three untraced (each
/// its own sub-seed) or four traced (two sub-seeds, each untimed then timed).
RunResult sim_run(const std::string& workload, std::uint64_t seed, bool trace) {
  RunConfig config;
  config.workload = workload;
  config.seed = seed;
  config.seconds = 0;
  config.trace = trace;
  RunResult run = run_sim_workload(config);
  EXPECT_TRUE(run.errors.empty()) << run.errors.front();
  EXPECT_EQ(run.phases.size(), trace ? 4u : 3u);
  return run;
}

/// Everything a phase measured on the virtual clock or counted.
void expect_same_counts(const Phase& a, const Phase& b) {
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.acked, b.acked);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.layers.sent, b.layers.sent);
  EXPECT_EQ(a.layers.sent_bytes, b.layers.sent_bytes);
  EXPECT_EQ(a.layers.calls, b.layers.calls);
  EXPECT_EQ(a.layers.storage_writes, b.layers.storage_writes);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.peak_rate, b.peak_rate);
  EXPECT_EQ(a.unavailable_ms, b.unavailable_ms);
  EXPECT_EQ(a.gap_ms, b.gap_ms);
  EXPECT_EQ(a.recovery_catchup_ms, b.recovery_catchup_ms);
}

double metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0;
}

TEST(Determinism, SameSeedGivesIdenticalVirtualMetricsAndCounts) {
  for (const char* workload : {"sim-steady", "sim-failover", "sim-durable"}) {
    SCOPED_TRACE(workload);
    const RunResult a = sim_run(workload, 7, false);
    const RunResult b = sim_run(workload, 7, false);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
      expect_same_counts(a.phases[i], b.phases[i]);
    }
  }
}

TEST(Determinism, AnotherSeedChangesThem) {
  const RunResult a = sim_run("sim-steady", 7, false);
  const RunResult b = sim_run("sim-steady", 8, false);
  EXPECT_NE(a.phases[0].latency_ms, b.phases[0].latency_ms);
  EXPECT_NE(a.phases[0].sim_events, b.phases[0].sim_events);
}

TEST(Determinism, TracingIsPassive) {
  // A traced run replays each sub-seed untimed, then timed.
  for (const char* workload : {"sim-steady", "sim-failover", "sim-durable"}) {
    SCOPED_TRACE(workload);
    const RunResult traced = sim_run(workload, 11, true);
    ASSERT_EQ(traced.phases.size(), 4u);
    for (std::size_t i = 0; i < traced.phases.size(); i += 2) {
      ASSERT_FALSE(traced.phases[i].timed);
      ASSERT_TRUE(traced.phases[i + 1].timed);
      expect_same_counts(traced.phases[i], traced.phases[i + 1]);
    }
  }
}

TEST(Anchors, SimulatorLayerCoverage) {
  const auto steady =
      end_to_end_metrics(sim_run("sim-steady", 3, false), false);
  const auto failover =
      end_to_end_metrics(sim_run("sim-failover", 3, false), false);
  const double steady_msgs = metric(steady, "consensus_msgs_per_cmd");
  EXPECT_NEAR(steady_msgs, 17.9, 1.0);
  EXPECT_GT(metric(failover, "consensus_msgs_per_cmd"), 3 * steady_msgs);

  for (const char* workload : {"sim-steady", "sim-failover", "sim-durable"}) {
    SCOPED_TRACE(workload);
    const auto layers = per_layer_metrics(sim_run(workload, 3, true), false);
    const double writes = metric(layers, "common.storage_writes_per_op");
    if (std::string(workload) == "sim-durable") {
      EXPECT_GT(writes, 0);
      EXPECT_GT(metric(layers, "consensus.recovery_catchup_ms"), 0);
    } else {
      EXPECT_EQ(writes, 0);
    }
    EXPECT_EQ(metric(layers, "runtime.syscalls_per_op"), 0);
  }
}

TEST(Anchors, SocketLayerCoverage) {
  RunConfig config;
  config.workload = "udp-loopback";
  config.seed = 3;
  config.seconds = 4;
  config.trace = true;
  const RunResult run = run_udp_workload(config);
  ASSERT_TRUE(run.errors.empty()) << run.errors.front();
  const auto layers = per_layer_metrics(run, true);
  EXPECT_GT(metric(layers, "runtime.syscalls_per_op"), 0);
  EXPECT_EQ(metric(layers, "common.storage_writes_per_op"), 0);
  EXPECT_EQ(metric(layers, "sim.events_per_op"), 0);
}

}  // namespace
}  // namespace perfbench
