// C5 — Sharded multi-group consensus: throughput scaling in the group count.
//
// One process hosts M consensus groups behind a single fabric endpoint and
// a single shared Omega (rsm/replica.h). Each group runs the
// paper's leader-driven protocol unchanged, with a bounded proposer pipeline
// (max_inflight), so per-group throughput is window-limited — and aggregate
// throughput should scale near-linearly in M while the per-decision message
// cost stays flat (the envelope mux adds bytes, not messages, and the one
// oracle serves every group).
//
// The bench drives the closed-loop client workload (run_sim_loadgen) at
// M in {1, 2, 4} over n = 5 replicas and guards the two claims:
//   * aggregate throughput at M=4 is >= 3x the M=1 baseline;
//   * consensus messages per decision at M=4 is within 15% of M=1.
//
// --out=BENCH_shard.json writes the result set for the bench pipeline
// (schema in EXPERIMENTS.md C5).
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "client/loadgen.h"
#include "flags.h"

using namespace lls;
using namespace lls::bench;

namespace {

LoadgenConfig base_config(std::uint64_t seed) {
  LoadgenConfig cfg;
  cfg.cluster_n = 5;
  cfg.clients = 16;
  cfg.closed_outstanding = 4;
  cfg.keys = 256;  // uniform keys spread evenly over the hash partition
  cfg.write_ratio = 0.5;
  cfg.seed = seed;
  cfg.duration = 8 * kSecond;
  cfg.warmup = 1 * kSecond;
  // The scaling mechanism: a finite per-group pipeline window makes each
  // group's throughput window-bound, so adding groups adds capacity. (With
  // an unbounded window one group already pipelines arbitrarily deep and
  // there is nothing left to scale.)
  cfg.consensus_max_inflight = 4;
  return cfg;
}

void emit_run_json(Json& json, int shards, const LoadgenResult& r) {
  json.begin_object();
  json.key("shards").value(shards);
  json.key("throughput_ops_s").value(r.throughput);
  json.key("acked").value(r.acked);
  json.key("p50_ms").value(r.p50_ms);
  json.key("p99_ms").value(r.p99_ms);
  json.key("consensus_msgs").value(r.consensus_msgs);
  json.key("consensus_decisions").value(r.consensus_decisions);
  json.key("consensus_msgs_per_decision").value(r.consensus_msgs_per_decision);
  json.key("client_batches").value(r.client_batches);
  json.key("client_batched_requests").value(r.client_batched_requests);
  json.key("shard_imbalance").value(r.shard_imbalance);
  json.key("envelopes_rejected").value(r.envelopes_rejected);
  json.key("per_shard").begin_array();
  for (std::size_t g = 0; g < r.shard_stats.size(); ++g) {
    const auto& s = r.shard_stats[g];
    json.begin_object();
    json.key("shard").value(g);
    json.key("acked").value(s.acked);
    json.key("throughput_ops_s").value(s.throughput);
    json.key("p50_ms").value(s.p50_ms);
    json.key("p99_ms").value(s.p99_ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t seed = flags.u64("seed", 42);
  const std::string json_path = flags.out();
  if (!flags.ok()) {
    flags.report(stderr);
    return 2;
  }

  banner("C5 — shard scaling: many logs, one fabric",
         "aggregate throughput grows ~linearly in the group count M while "
         "per-decision message cost stays flat");

  Table table({"M", "ops/s", "speedup", "p50(ms)", "p99(ms)", "msgs/decision",
               "imbalance"});
  Json json;
  json.begin_object();
  json.key("bench").value("shard_scaling");
  json.key("config").begin_object();
  {
    const LoadgenConfig cfg = base_config(seed);
    json.key("n").value(cfg.cluster_n);
    json.key("clients").value(cfg.clients);
    json.key("outstanding").value(cfg.closed_outstanding);
    json.key("max_inflight").value(cfg.consensus_max_inflight);
    json.key("duration_ms").value(cfg.duration / kMillisecond);
    json.key("seed").value(seed);
  }
  json.end_object();
  json.key("runs").begin_array();

  std::vector<std::pair<int, LoadgenResult>> outcomes;
  for (int shards : {1, 2, 4}) {
    LoadgenConfig cfg = base_config(seed);
    cfg.shards = shards;
    LoadgenResult r = run_sim_loadgen(cfg);
    const double speedup =
        outcomes.empty() ? 1.0 : r.throughput / outcomes.front().second.throughput;
    table.add_row({format("%d", shards), format("%.0f", r.throughput),
                   format("%.2fx", speedup), format("%.2f", r.p50_ms),
                   format("%.2f", r.p99_ms),
                   format("%.2f", r.consensus_msgs_per_decision),
                   format("%.2f", r.shard_imbalance)});
    emit_run_json(json, shards, r);
    outcomes.emplace_back(shards, r);
  }
  table.print();
  std::printf(
      "\nExpectation: ops/s grows ~linearly in M (each group's pipeline is\n"
      "window-bound); msgs/decision stays ~flat (the envelope adds no\n"
      "messages and the shared Omega adds no per-group traffic).\n");

  // Guards: the headline scaling claim and the per-decision cost claim.
  const LoadgenResult& m1 = outcomes.front().second;
  const LoadgenResult& m4 = outcomes.back().second;
  const double speedup = m1.throughput > 0 ? m4.throughput / m1.throughput : 0;
  const double mpd_delta =
      m1.consensus_msgs_per_decision > 0
          ? std::abs(m4.consensus_msgs_per_decision -
                     m1.consensus_msgs_per_decision) /
                m1.consensus_msgs_per_decision
          : 1.0;
  bool ok = true;
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "GUARD FAILED: M=4 speedup %.2fx < 3.0x over M=1\n", speedup);
    ok = false;
  }
  if (mpd_delta > 0.15) {
    std::fprintf(stderr,
                 "GUARD FAILED: msgs/decision drifted %.1f%% from M=1 "
                 "(%.2f -> %.2f), budget 15%%\n",
                 mpd_delta * 100, m1.consensus_msgs_per_decision,
                 m4.consensus_msgs_per_decision);
    ok = false;
  }
  for (const auto& [shards, r] : outcomes) {
    if (!r.drained || r.timed_out != 0 || r.envelopes_rejected != 0) {
      std::fprintf(stderr,
                   "GUARD FAILED: M=%d unhealthy run (drained=%d timed_out=%llu"
                   " envelopes_rejected=%llu)\n",
                   shards, (int)r.drained, (unsigned long long)r.timed_out,
                   (unsigned long long)r.envelopes_rejected);
      ok = false;
    }
  }
  if (ok) {
    std::printf("\nGUARD OK: %.2fx speedup at M=4, msgs/decision drift "
                "%.1f%%.\n",
                speedup, mpd_delta * 100);
  }

  json.key("guards").begin_object();
  json.key("speedup_m4_over_m1").value(speedup);
  json.key("msgs_per_decision_rel_delta").value(mpd_delta);
  json.key("ok").value(ok);
  json.end_object();
  json.end_object();
  if (!json_path.empty() && !write_json_file(json_path, json)) return 1;
  return ok ? 0 : 1;
}
