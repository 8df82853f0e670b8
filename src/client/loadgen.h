// Workload driver for the client subsystem: many ClusterClient sessions
// against a simulated replica cluster, with open- or closed-loop arrival,
// key skew, a read/write mix, latency percentiles and an optional
// exactly-once audit under an injected leader crash.
//
// The driver is deterministic: a run is a pure function of LoadgenConfig
// (including the seed), so every reported number — and every audit
// violation — can be replayed bit-for-bit from the command line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace lls {

struct LoadgenConfig {
  int cluster_n = 5;  ///< replicas, at process ids [0, cluster_n)
  int clients = 8;    ///< client sessions, at ids [cluster_n, cluster_n+clients)

  /// Closed loop (default): each client keeps `closed_outstanding` requests
  /// in flight, issuing the next on each completion — throughput is
  /// whatever the cluster sustains. Open loop: each client submits at
  /// `open_rate` requests/second regardless of completions, so admission
  /// control (BUSY) and queueing become visible.
  bool open_loop = false;
  int closed_outstanding = 1;
  double open_rate = 200.0;  ///< per-client, requests/second

  int keys = 64;             ///< key space size ("k0".."k<keys-1>")
  double zipf = 0.0;         ///< key skew exponent; 0 = uniform
  double write_ratio = 0.5;  ///< fraction of requests that mutate
  std::size_t value_size = 16;  ///< written value bytes (non-verify mode)

  std::uint64_t seed = 1;

  TimePoint start = 2 * kSecond;   ///< load begins (lets election settle)
  Duration warmup = 1 * kSecond;   ///< excluded from latency/throughput
  Duration duration = 10 * kSecond;  ///< load window length
  Duration drain = 20 * kSecond;     ///< max extra time to drain in-flight

  // Replica knobs under test.
  std::size_t max_batch = 1;
  Duration batch_flush_delay = 2 * kMillisecond;
  std::size_t admit_high_water = 1024;

  /// Consensus groups per replica process (M >= 1), all behind one shared
  /// Omega (rsm/replica.h), with shard-aware clients. M = 1 is the paper's
  /// single-log stack on the same container, which makes M=1 vs M=4 an
  /// apples-to-apples scaling comparison.
  int shards = 1;

  /// Per-group proposer pipelining window (LogConsensusConfig::max_inflight,
  /// >= 1, with its default; loadgen.cc checks the two agree). A small
  /// window makes per-group throughput window-limited, which is what lets
  /// shard counts scale aggregate throughput in the sim's latency-bound
  /// regime (see EXPERIMENTS.md C5).
  std::size_t consensus_max_inflight = 1024;

  // Client knobs.
  Duration attempt_timeout = 120 * kMillisecond;
  Duration request_deadline = 0;  ///< 0 = retry forever
  /// Coalesce same-destination client sends into request batches.
  bool coalesce = true;

  /// Leader leases: reads are submitted via ClusterClient::get() marked
  /// read-only, replicas run the lease protocol (fence grants on supporting
  /// replies, quorum-supported lease_valid()) and the leader answers reads
  /// from local state while its lease holds — zero consensus instances per
  /// local read. Off reproduces the ordered-everything baseline.
  bool lease_reads = false;
  /// Lease window (consensus fence duration and the omega hint horizon).
  Duration lease_duration = 200 * kMillisecond;
  /// Conservative clock slack subtracted from remote support. Keep 0 on the
  /// simulator (one global clock); set to a few ms on real UDP runs.
  Duration lease_clock_margin = 0;

  /// Crash whatever the cluster believes is the leader at this virtual
  /// time (0 disables). The load must ride through the failover.
  TimePoint crash_leader_at = 0;

  /// Exactly-once audit: writes become appends of per-request unique
  /// tokens; at the end every acked token must appear exactly once on
  /// every alive replica, no token twice, and all stores must agree.
  bool verify = false;

  /// When non-empty, the run dumps its observability plane as artifacts:
  /// `<prefix>.prom` (Prometheus text), `<prefix>.json` (metrics snapshot)
  /// and `<prefix>.trace.jsonl` (control-plane event trace, including
  /// election-stabilization spans and per-instance consensus spans).
  std::string artifacts_prefix;

  /// When non-empty, the run records every client op to this `.hist` file
  /// (streaming: invocations at submit, responses as they complete; timed-out
  /// ops stay pending), ready for offline checking with `lls_check`.
  std::string hist_path;
};

struct LoadgenResult {
  // Volume.
  std::uint64_t submitted = 0;
  std::uint64_t acked = 0;
  std::uint64_t timed_out = 0;
  /// Completed EXPIRED: applied, but the result was evicted first.
  std::uint64_t expired = 0;
  std::uint64_t retries = 0;
  std::uint64_t redirects = 0;
  std::uint64_t busy_replies = 0;
  std::uint64_t target_rotations = 0;

  // Latency over completions invoked after warmup, milliseconds.
  double p50_ms = 0, p90_ms = 0, p99_ms = 0, mean_ms = 0, max_ms = 0;
  /// Acked requests per second over the measured window.
  double throughput = 0;

  /// Per-op-class breakdown over the measured window: reads (kGet) and
  /// writes (everything that mutates) get separate latency percentiles and
  /// message economy, which is what makes the lease read path visible — a
  /// leased read completes in one client round trip with ~0 consensus
  /// messages while writes still pay the ordered path.
  struct OpStats {
    std::uint64_t acked = 0;
    double throughput = 0;
    double p50_ms = 0, p90_ms = 0, p99_ms = 0, mean_ms = 0, max_ms = 0;
    /// Consensus-class messages attributed to one op of this class (reads
    /// split local/ordered by the replicas' own counters; local reads cost
    /// zero consensus messages by construction).
    double consensus_msgs_per_op = 0;
  };
  OpStats reads;
  OpStats writes;

  // Lease read path (summed over alive replicas, whole run).
  std::uint64_t reads_local = 0;    ///< Gets answered from a held lease
  std::uint64_t reads_ordered = 0;  ///< read-only Gets that missed the lease
  /// reads_local / (reads_local + reads_ordered); 0 when leases are off.
  double lease_read_ratio = 0;

  // Message economy (whole run).
  std::uint64_t omega_msgs = 0;
  std::uint64_t consensus_msgs = 0;
  std::uint64_t client_msgs = 0;
  /// Consensus-class messages per acked command — the batching dividend.
  double consensus_msgs_per_cmd = 0;
  double total_msgs_per_cmd = 0;

  // Replica-side accounting (summed over replicas).
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t dup_proposals_suppressed = 0;
  std::uint64_t cached_replies = 0;
  std::uint64_t busy_sent = 0;

  // Client coalescing (whole run; a batch is a wire message carrying >= 2
  // requests).
  std::uint64_t client_batches = 0;
  std::uint64_t client_batched_requests = 0;

  // Consensus economy. Decisions are decided log instances summed over
  // groups (no-op fillers included), taken as the max view across alive
  // replicas per group.
  std::uint64_t consensus_decisions = 0;
  double consensus_msgs_per_decision = 0;

  /// Per-shard breakdown over the measured window (size = shard count).
  /// Zipf-skewed keyspaces show up here as hot shards.
  struct ShardStats {
    std::uint64_t acked = 0;
    double throughput = 0;
    double p50_ms = 0, p99_ms = 0;
  };
  std::vector<ShardStats> shard_stats;
  /// Hot-shard metric: max/mean measured ops per shard (1.0 = balanced,
  /// 0 when nothing completed).
  double shard_imbalance = 0;
  /// Group envelopes rejected by replicas (bad shard id / inner type).
  std::uint64_t envelopes_rejected = 0;

  ProcessId crashed = kNoProcess;  ///< leader killed, or kNoProcess
  bool drained = false;  ///< all clients idle before the drain deadline

  bool verify_ok = true;  ///< true when !config.verify or audit passed
  std::vector<std::string> verify_errors;
};

/// Runs the workload on the deterministic simulator. Pure function of
/// `config`.
LoadgenResult run_sim_loadgen(const LoadgenConfig& config);

}  // namespace lls
