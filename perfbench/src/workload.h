// The benchmark's workloads and the raw measurements they produce.
//
// A run repeats measured phases until its time budget is spent: on the
// simulator each phase is a fresh cluster with its own sub-seed (so one run
// pools several schedules), on UDP it is one fixed-rate window of a live
// cluster. report.cc turns the phases into the named metrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "reference.h"
#include "trace.h"

namespace perfbench {

/// Workload shapes shared by every workload (see BENCHMARK.json for why).
inline constexpr int kSimReplicas = 5;
inline constexpr int kSimClients = 64;
inline constexpr int kUdpReplicas = 3;
inline constexpr int kKeys = 64;
/// Every write appends one 16-byte token "<origin:4>-<serial:10>;", unique
/// per op, which is what makes the exactly-once audit possible.
inline constexpr std::size_t kTokenBytes = 16;
/// The 64 keys are renamed every kKeyGeneration ops ("g<n>.k<i>"), so
/// appended values — and the gets that return them — stay near 512 bytes
/// instead of growing for as long as a cluster runs.
inline constexpr std::uint64_t kKeyGeneration = 4096;

inline std::string key_name(std::uint64_t op_index, std::uint64_t key) {
  return "g" + std::to_string(op_index / kKeyGeneration) + ".k" +
         std::to_string(key);
}

/// UDP max_rate_ops_s rule: a ladder rate passes when the p99 latency of
/// its ops (timed from their due times) is at most kUdpP99LimitMs and the
/// backlog left at the end of the step is at most rate * limit (Little's
/// law: more outstanding work than that cannot all meet the limit). The
/// limit sits above the few-millisecond scheduling stalls a loaded
/// four-core host shows, so it separates saturation from that noise.
inline constexpr double kUdpP99LimitMs = 10.0;

/// Raw measurements of one measured phase.
struct Phase {
  bool timed = false;
  /// UDP closed-loop window: only its throughput is reported
  /// (wall_ops_per_s); every other metric skips it.
  bool closed_loop = false;

  // Volume over the phase.
  std::uint64_t attempted = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;

  // Wall clock and CPU of the load phase (first submission .. drained).
  /// Simulator: wall time from building a cluster to its first op served,
  /// for this phase's cluster and for the bare repeats built after it.
  std::vector<double> setup_s;
  double wall_s = 0;
  double cpu_s = 0;  ///< the stack's: the UDP generator thread's is taken out
  /// Reference chunks run beside the load (their time and allocations are
  /// already taken out of wall_s, cpu_s and allocs).
  HostSpeed host;

  // The UDP open-loop generator's own cost, reported on its own lines.
  double gen_cpu_s = 0;
  std::uint64_t gen_wakes = 0;  ///< wake datagrams sent to the client node

  // Client view, on the workload's clock (virtual ms in the simulator).
  std::vector<double> latency_ms;  ///< from each op's due time
  /// Simulator: the most completions in any 100 ms of the measured window,
  /// per second — the highest rate the cluster served (after a failover,
  /// its catch-up burst).
  double peak_rate = 0;
  /// Leader-crash phases: crash to the first completion of an op due after
  /// it (-1 without a crash).
  double unavailable_ms = -1;
  /// Longest gap between completions in each 500 ms of the measured window.
  std::vector<double> gap_ms;
  std::vector<double> gen_late_ms;

  // Layers, as deltas over the phase.
  LayerStats layers;
  std::uint64_t sim_events = 0;
  std::uint64_t bus_events = 0;
  std::uint64_t decisions = 0;
  std::uint64_t allocs = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t retries = 0;
  std::uint64_t cached_replies = 0;
  std::uint64_t client_batches = 0;
  std::uint64_t client_batched_requests = 0;
  std::uint64_t leader_changes = 0;
  double recovery_catchup_ms = -1;
  lls::obs::Histogram decide_latency_ms;
  lls::obs::Histogram stabilization_ms;
  lls::obs::Histogram to_admit_ms;
  lls::obs::Histogram admit_to_apply_ms;
  lls::obs::Histogram apply_to_reply_ms;

  // Socket runtime only (zero in the simulator).
  std::uint64_t sendmmsg_calls = 0;
  std::uint64_t recvmmsg_calls = 0;
  std::uint64_t datagrams_sent = 0;
  double loop_cpu_s = 0;
  std::uint64_t ctx_switches = 0;
};

struct RunResult {
  std::vector<Phase> phases;
  std::vector<double> setup_s;  ///< UDP: every cluster set-up the run timed
  double max_rate_ops_s = -1;   ///< UDP ladder result (-1: not a ladder run)
  /// Peak RSS (MiB) before the UDP ladder's overload (-1: at exit).
  double peak_rss_mb = -1;
  std::vector<std::string> errors;  ///< correctness failures; empty = pass
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  SpanLog* spans = nullptr;  ///< request/phase spans (traced runs)
};

[[nodiscard]] bool is_known_workload(const std::string& name);

/// Simulator workloads: sim-steady, sim-failover, sim-durable.
RunResult run_sim_workload(const RunConfig& config);

/// udp-loopback.
RunResult run_udp_workload(const RunConfig& config);

/// The longest gap between consecutive completion times (sorted) within
/// each whole `window` of [from, to), in the times' own unit.
inline std::vector<std::int64_t> window_gaps(const std::vector<std::int64_t>& done,
                                             std::int64_t from, std::int64_t to,
                                             std::int64_t window) {
  std::vector<std::int64_t> gaps;
  std::size_t i = 0;
  for (std::int64_t w = from; w + window <= to; w += window) {
    while (i < done.size() && done[i] < w) ++i;
    std::int64_t prev = w;
    std::int64_t gap = 0;
    for (; i < done.size() && done[i] < w + window; ++i) {
      gap = std::max(gap, done[i] - prev);
      prev = done[i];
    }
    gaps.push_back(std::max(gap, w + window - prev));
  }
  return gaps;
}

/// Deterministic per-phase seed.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index);

/// Process user+sys CPU seconds and peak RSS (MiB).
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
