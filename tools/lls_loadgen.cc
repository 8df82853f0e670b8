// lls_loadgen: workload driver for the client subsystem.
//
// Drives a fleet of ClusterClient sessions against a replicated KV cluster
// and reports throughput, latency percentiles and message economy. Two
// hosts:
//
//   * the deterministic simulator (default) — reproducible runs, optional
//     leader-crash injection and an exactly-once audit (--verify);
//   * the UDP runtime (--udp) — the same actors over real sockets on
//     loopback, wall-clock timed.
//
// --batches sweeps the replica's max_batch setting so the batching dividend
// (consensus messages per committed command) is measured in one invocation;
// --out writes the full result set for the bench pipeline
// (tools/run_bench.sh -> BENCH_client.json); --artifacts dumps the
// observability plane (Prometheus text, JSON snapshot, control-plane trace).
//
// Examples:
//   lls_loadgen --mode=closed --clients=64 --crash-leader-at-ms=5000 --verify
//   lls_loadgen --batches=1,8,32 --out=BENCH_client.json
//   lls_loadgen --artifacts=loadgen --verify
//   lls_loadgen --udp --clients=4 --duration-ms=2000 --stats-port=9464
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "client/cluster_client.h"
#include "client/loadgen.h"
#include "flags.h"
#include "obs/histogram.h"
#include "rsm/history.h"
#include "rsm/replica.h"
#include "runtime/udp_runtime.h"

using namespace lls;
using namespace lls::bench;

namespace {

struct CliOptions {
  LoadgenConfig load;
  std::vector<std::size_t> batches{1};
  bool udp = false;
  std::vector<int> shard_sweep;  ///< UDP mode: run once per shard count
  std::uint16_t udp_base_port = 47400;
  std::uint16_t stats_port = 0;  ///< UDP mode: replica 0's scrape port
  std::string json_path;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --mode=closed|open         arrival process (default closed)\n"
      "  --n=N                      replicas (default 5)\n"
      "  --clients=C                client sessions (default 8)\n"
      "  --outstanding=K            closed loop: in-flight ops per client\n"
      "  --rate=R                   open loop: per-client ops/sec\n"
      "  --keys=K --zipf=S          key space and skew (zipf 0 = uniform)\n"
      "  --write-ratio=F            fraction of mutating ops (default 0.5)\n"
      "  --value-size=B             written value bytes\n"
      "  --batches=1,8,32           replica max_batch sweep\n"
      "  --shards=M                 host M consensus groups per replica\n"
      "                             (default 1)\n"
      "  --max-inflight=W           per-group proposer pipeline window\n"
      "                             (default 1024, at least 1)\n"
      "  --no-coalesce              one wire message per client attempt\n"
      "  --lease-reads              leader leases: reads go through the\n"
      "                             read-only fast path (local answers\n"
      "                             under a quorum-supported lease)\n"
      "  --lease-duration-ms=D      lease window (default 200)\n"
      "  --lease-clock-margin-ms=M  clock slack subtracted from remote\n"
      "                             support (default 0 sim / 5 udp)\n"
      "  --duration-ms=D --warmup-ms=W --drain-ms=X\n"
      "  --crash-leader-at-ms=T     kill the leader at virtual time T (sim)\n"
      "  --verify                   exactly-once audit (sim)\n"
      "  --artifacts=PREFIX         dump PREFIX.prom / .json / .trace.jsonl\n"
      "                             observability artifacts (sim)\n"
      "  --hist=PATH                record the client op history as a .hist\n"
      "                             file for offline lls_check (sim and udp;\n"
      "                             with a --batches sweep the last run wins)\n"
      "  --seed=S\n"
      "  --out=PATH                 write results as JSON (--json= alias)\n"
      "  --udp [--udp-base-port=P]  run over UDP sockets instead of the sim\n"
      "  --shard-sweep=1,2,4        UDP mode: run the workload once per\n"
      "                             shard count (throughput scaling sweep)\n"
      "  --stats-port=P             UDP mode: replica 0 serves /metrics on P\n",
      argv0);
}

bool parse_args(int argc, char** argv, CliOptions* opt) {
  Flags flags(argc, argv);
  if (flags.help()) {
    usage(argv[0]);
    std::exit(0);
  }
  std::string mode = flags.str("mode", "closed");
  if (mode == "closed") {
    opt->load.open_loop = false;
  } else if (mode == "open") {
    opt->load.open_loop = true;
  } else {
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return false;
  }
  opt->load.cluster_n = static_cast<int>(
      flags.i64("n", opt->load.cluster_n));
  opt->load.clients = static_cast<int>(
      flags.i64("clients", opt->load.clients));
  opt->load.closed_outstanding = static_cast<int>(
      flags.i64("outstanding", opt->load.closed_outstanding));
  opt->load.open_rate = flags.f64("rate", opt->load.open_rate);
  opt->load.keys = static_cast<int>(flags.i64("keys", opt->load.keys));
  opt->load.zipf = flags.f64("zipf", opt->load.zipf);
  opt->load.write_ratio = flags.f64("write-ratio", opt->load.write_ratio);
  opt->load.value_size = static_cast<std::size_t>(
      flags.u64("value-size", opt->load.value_size));
  std::vector<std::uint64_t> batches =
      flags.u64_list("batches", {opt->batches.begin(), opt->batches.end()});
  opt->batches.assign(batches.begin(), batches.end());
  opt->load.duration = static_cast<Duration>(flags.u64(
                           "duration-ms",
                           static_cast<std::uint64_t>(opt->load.duration /
                                                      kMillisecond))) *
                       kMillisecond;
  opt->load.warmup = static_cast<Duration>(flags.u64(
                         "warmup-ms",
                         static_cast<std::uint64_t>(opt->load.warmup /
                                                    kMillisecond))) *
                     kMillisecond;
  opt->load.drain = static_cast<Duration>(flags.u64(
                        "drain-ms",
                        static_cast<std::uint64_t>(opt->load.drain /
                                                   kMillisecond))) *
                    kMillisecond;
  opt->load.crash_leader_at =
      static_cast<TimePoint>(flags.u64("crash-leader-at-ms", 0)) *
      kMillisecond;
  opt->load.shards = static_cast<int>(flags.i64("shards", opt->load.shards));
  opt->load.consensus_max_inflight = static_cast<std::size_t>(
      flags.u64("max-inflight", opt->load.consensus_max_inflight));
  opt->load.coalesce = !flags.flag("no-coalesce");
  opt->load.lease_reads = flags.flag("lease-reads");
  opt->load.lease_duration = static_cast<Duration>(flags.u64(
                                 "lease-duration-ms",
                                 static_cast<std::uint64_t>(
                                     opt->load.lease_duration /
                                     kMillisecond))) *
                             kMillisecond;
  opt->load.lease_clock_margin =
      static_cast<Duration>(flags.u64("lease-clock-margin-ms", 0)) *
      kMillisecond;
  opt->load.verify = flags.flag("verify");
  opt->load.artifacts_prefix = flags.str("artifacts");
  opt->load.hist_path = flags.str("hist");
  opt->load.seed = flags.u64("seed", opt->load.seed);
  opt->json_path = flags.out();
  opt->udp = flags.flag("udp");
  for (std::uint64_t m : flags.u64_list("shard-sweep", {})) {
    opt->shard_sweep.push_back(static_cast<int>(m));
  }
  opt->udp_base_port = static_cast<std::uint16_t>(
      flags.u64("udp-base-port", opt->udp_base_port));
  opt->stats_port = static_cast<std::uint16_t>(flags.u64("stats-port", 0));
  if (!flags.ok()) {
    flags.report(stderr);
    return false;
  }
  if (opt->load.cluster_n < 1 || opt->load.clients < 1) {
    std::fprintf(stderr, "--n and --clients must be positive\n");
    return false;
  }
  if (opt->load.shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return false;
  }
  if (opt->load.consensus_max_inflight < 1) {
    std::fprintf(stderr, "--max-inflight must be >= 1\n");
    return false;
  }
  for (int m : opt->shard_sweep) {
    if (m < 1) {
      std::fprintf(stderr, "--shard-sweep counts must be >= 1\n");
      return false;
    }
  }
  return true;
}

void emit_run_json(Json& json, std::size_t batch, const LoadgenResult& r) {
  json.begin_object();
  json.key("batch").value(batch);
  json.key("throughput_ops_s").value(r.throughput);
  json.key("p50_ms").value(r.p50_ms);
  json.key("p90_ms").value(r.p90_ms);
  json.key("p99_ms").value(r.p99_ms);
  json.key("mean_ms").value(r.mean_ms);
  json.key("submitted").value(r.submitted);
  json.key("acked").value(r.acked);
  json.key("timed_out").value(r.timed_out);
  json.key("expired").value(r.expired);
  json.key("retries").value(r.retries);
  json.key("redirects").value(r.redirects);
  json.key("busy_replies").value(r.busy_replies);
  json.key("omega_msgs").value(r.omega_msgs);
  json.key("consensus_msgs").value(r.consensus_msgs);
  json.key("client_msgs").value(r.client_msgs);
  json.key("consensus_msgs_per_cmd").value(r.consensus_msgs_per_cmd);
  json.key("total_msgs_per_cmd").value(r.total_msgs_per_cmd);
  json.key("duplicates_suppressed").value(r.duplicates_suppressed);
  json.key("dup_proposals_suppressed").value(r.dup_proposals_suppressed);
  json.key("cached_replies").value(r.cached_replies);
  json.key("client_batches").value(r.client_batches);
  json.key("client_batched_requests").value(r.client_batched_requests);
  json.key("consensus_decisions").value(r.consensus_decisions);
  json.key("consensus_msgs_per_decision").value(r.consensus_msgs_per_decision);
  json.key("envelopes_rejected").value(r.envelopes_rejected);
  auto op_json = [&](const char* name, const LoadgenResult::OpStats& st) {
    json.key(name).begin_object();
    json.key("acked").value(st.acked);
    json.key("throughput_ops_s").value(st.throughput);
    json.key("p50_ms").value(st.p50_ms);
    json.key("p90_ms").value(st.p90_ms);
    json.key("p99_ms").value(st.p99_ms);
    json.key("mean_ms").value(st.mean_ms);
    json.key("consensus_msgs_per_op").value(st.consensus_msgs_per_op);
    json.end_object();
  };
  op_json("reads", r.reads);
  op_json("writes", r.writes);
  json.key("reads_local").value(r.reads_local);
  json.key("reads_ordered").value(r.reads_ordered);
  json.key("lease_read_ratio").value(r.lease_read_ratio);
  json.key("shard_imbalance").value(r.shard_imbalance);
  json.key("shards").begin_array();
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
  json.key("crashed_leader")
      .value(static_cast<std::int64_t>(r.crashed == kNoProcess ? -1 : r.crashed));
  json.key("drained").value(r.drained);
  json.key("verify_ok").value(r.verify_ok);
  json.key("verify_errors").begin_array();
  for (const auto& e : r.verify_errors) json.value(e);
  json.end_array();
  json.end_object();
}

int run_sim(const CliOptions& opt) {
  std::printf(
      "lls_loadgen (sim): n=%d clients=%d mode=%s shards=%d seed=%llu%s%s%s\n\n",
      opt.load.cluster_n, opt.load.clients,
      opt.load.open_loop ? "open" : "closed", opt.load.shards,
      (unsigned long long)opt.load.seed,
      opt.load.crash_leader_at > 0 ? " +leader-crash" : "",
      opt.load.verify ? " +verify" : "",
      opt.load.lease_reads ? " +lease-reads" : "");

  Table table({"batch", "acked", "ops/s", "p50(ms)", "p99(ms)", "retries",
               "redirects", "cmsg/cmd", "verify"});
  // Per-op-class split: two rows per batch. `local` is the fraction of
  // admitted reads a leaseholder answered from local state.
  Table op_table({"batch", "op", "acked", "ops/s", "p50(ms)", "p90(ms)",
                  "p99(ms)", "cmsg/op", "local"});
  Json json;
  json.begin_object();
  json.key("tool").value("lls_loadgen");
  json.key("host").value("sim");
  machine_stamp(json, LLS_BUILD_TYPE, LLS_SOURCE_DIR);
  json.key("config").begin_object();
  json.key("n").value(opt.load.cluster_n);
  json.key("clients").value(opt.load.clients);
  json.key("mode").value(opt.load.open_loop ? "open" : "closed");
  json.key("write_ratio").value(opt.load.write_ratio);
  json.key("seed").value(opt.load.seed);
  json.key("crash_leader_at_ms")
      .value(opt.load.crash_leader_at / kMillisecond);
  json.key("verify").value(opt.load.verify);
  json.key("shards").value(opt.load.shards);
  json.key("max_inflight").value(opt.load.consensus_max_inflight);
  json.key("coalesce").value(opt.load.coalesce);
  json.key("lease_reads").value(opt.load.lease_reads);
  json.key("lease_duration_ms").value(opt.load.lease_duration / kMillisecond);
  json.key("lease_clock_margin_ms")
      .value(opt.load.lease_clock_margin / kMillisecond);
  json.end_object();
  json.key("runs").begin_array();

  bool ok = true;
  std::vector<double> msgs_per_cmd;
  for (std::size_t batch : opt.batches) {
    LoadgenConfig cfg = opt.load;
    cfg.max_batch = batch;
    LoadgenResult r = run_sim_loadgen(cfg);
    ok = ok && r.verify_ok;
    msgs_per_cmd.push_back(r.consensus_msgs_per_cmd);
    table.add_row({format("%zu", batch),
                   format("%llu", (unsigned long long)r.acked),
                   format("%.0f", r.throughput), format("%.2f", r.p50_ms),
                   format("%.2f", r.p99_ms),
                   format("%llu", (unsigned long long)r.retries),
                   format("%llu", (unsigned long long)r.redirects),
                   format("%.2f", r.consensus_msgs_per_cmd),
                   !opt.load.verify ? "-" : (r.verify_ok ? "ok" : "FAIL")});
    for (const auto& e : r.verify_errors) {
      std::fprintf(stderr, "verify: %s\n", e.c_str());
    }
    if (!r.shard_stats.empty()) {
      std::printf("batch=%zu per-shard breakdown (imbalance %.2f):\n", batch,
                  r.shard_imbalance);
      for (std::size_t g = 0; g < r.shard_stats.size(); ++g) {
        const auto& s = r.shard_stats[g];
        std::printf("  shard %zu: acked %llu  %.0f ops/s  p50 %.2f ms  "
                    "p99 %.2f ms\n",
                    g, (unsigned long long)s.acked, s.throughput, s.p50_ms,
                    s.p99_ms);
      }
    }
    auto op_row = [&](const char* op, const LoadgenResult::OpStats& st,
                      const std::string& local) {
      op_table.add_row({format("%zu", batch), op,
                        format("%llu", (unsigned long long)st.acked),
                        format("%.0f", st.throughput),
                        format("%.2f", st.p50_ms), format("%.2f", st.p90_ms),
                        format("%.2f", st.p99_ms),
                        format("%.2f", st.consensus_msgs_per_op), local});
    };
    op_row("read", r.reads,
           opt.load.lease_reads ? format("%.0f%%", 100.0 * r.lease_read_ratio)
                                : "-");
    op_row("write", r.writes, "-");
    emit_run_json(json, batch, r);
  }
  json.end_array();
  json.end_object();
  table.print();
  std::printf("\nby op class:\n");
  op_table.print();

  if (!opt.json_path.empty() && !write_json_file(opt.json_path, json)) {
    ok = false;
  }
  if (!ok) {
    std::printf("\nFAIL: exactly-once audit reported violations\n");
    return 1;
  }
  return 0;
}

/// Thread-safe `.hist` recorder for the UDP host. Timestamps come from one
/// process-global steady clock, NOT from the per-node runtimes (each UdpNode
/// epochs its clock at construction, so per-node times are mutually skewed).
/// Invocations are stamped before submit() and responses when the completion
/// runs, so every recorded interval is a superset of the true one — sound
/// for the checker.
class UdpHistRecorder {
 public:
  bool open(const std::string& path, std::uint64_t seed) {
    HistoryMeta meta;
    meta.source = "lls_loadgen/udp";
    meta.seed = seed;
    return writer_.open(path, meta);
  }

  [[nodiscard]] TimePoint now() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::uint64_t invoke(const Command& cmd, TimePoint t) {
    std::lock_guard<std::mutex> lock(mu_);
    return writer_.invoke(cmd, t);
  }

  void respond(std::uint64_t id, const KvResult& result) {
    TimePoint t = now();
    std::lock_guard<std::mutex> lock(mu_);
    writer_.respond(id, t, result);
  }

  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    writer_.close();
  }

 private:
  std::mutex mu_;
  HistoryWriter writer_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// One UDP run's aggregate outcome, for the console table and JSON output.
struct UdpRunStats {
  int shards = 0;
  std::uint64_t acked = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t retries = 0;
  std::uint64_t redirects = 0;
  double throughput = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t samples = 0;
  std::uint64_t reads_local = 0;
  std::uint64_t reads_ordered = 0;
  // Data-plane counters summed over every node (replicas + clients).
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t sendmmsg_calls = 0;
  std::uint64_t recvmmsg_calls = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

/// UDP host: same actors over loopback sockets, wall-clock timed, closed
/// loop only (the sim host covers the parameter space; this proves the
/// stack runs unchanged over real datagrams). One invocation = one cluster
/// at `shards` groups on `base_port`.
UdpRunStats run_udp_once(const CliOptions& opt, int shards,
                         std::uint16_t base_port) {
  const int cluster_n = opt.load.cluster_n;
  const int n = cluster_n + opt.load.clients;
  std::printf("lls_loadgen (udp): n=%d clients=%d shards=%d base_port=%u\n\n",
              cluster_n, opt.load.clients, shards, base_port);

  std::vector<std::unique_ptr<UdpNode>> nodes;
  for (ProcessId p = 0; p < static_cast<ProcessId>(cluster_n); ++p) {
    KvReplicaConfig rc;
    rc.cluster_n = cluster_n;
    rc.max_batch = opt.batches.front();
    LogConsensusConfig lc;
    lc.max_inflight = opt.load.consensus_max_inflight;
    lc.lease.enabled = opt.load.lease_reads;
    lc.lease.duration = opt.load.lease_duration;
    // Real clocks drift: never run leases over UDP without slack. The
    // fence/support windows only depend on drift *rates* over one lease
    // window, so a few milliseconds dominates commodity oscillators.
    lc.lease.clock_margin =
        std::max<Duration>(opt.load.lease_clock_margin, 5 * kMillisecond);
    UdpNodeConfig nc;
    nc.id = p;
    nc.n = n;
    nc.base_port = base_port;
    nc.seed = opt.load.seed + p;
    if (p == 0) nc.stats_port = opt.stats_port;
    CeOmegaConfig oc;
    oc.lease_duration = opt.load.lease_reads ? opt.load.lease_duration : 0;
    nodes.push_back(std::make_unique<UdpNode>(
        nc, std::make_unique<KvReplica>(KvReplica::Options{.omega = oc,
                                                           .consensus = lc,
                                                           .replica = rc,
                                                           .shards = shards})));
  }
  for (int c = 0; c < opt.load.clients; ++c) {
    ClusterClientConfig cc;
    cc.cluster_n = cluster_n;
    cc.window = static_cast<std::size_t>(opt.load.closed_outstanding);
    cc.shards = shards;
    cc.coalesce = opt.load.coalesce;
    cc.lease_reads = opt.load.lease_reads;
    UdpNodeConfig nc;
    nc.id = static_cast<ProcessId>(cluster_n + c);
    nc.n = n;
    nc.base_port = base_port;
    nc.seed = opt.load.seed + 1000 + static_cast<std::uint64_t>(c);
    nodes.push_back(std::make_unique<UdpNode>(
        nc, std::make_unique<ClusterClient>(cc)));
  }
  for (auto& node : nodes) node->start();
  if (nodes.front()->stats_port() != 0) {
    std::printf("stats: curl http://127.0.0.1:%u/metrics (or /metrics.json)\n",
                nodes.front()->stats_port());
  }

  // Per-client driver state, only ever touched on that client's loop thread
  // (submit + completion callbacks), so no locking (the shared history
  // recorder locks internally).
  UdpHistRecorder hist;
  const bool record = !opt.load.hist_path.empty() &&
                      hist.open(opt.load.hist_path, opt.load.seed);
  struct ClientState {
    UdpNode* node = nullptr;
    ClusterClient* client = nullptr;
    std::unique_ptr<Rng> rng;
    std::vector<double> latency_ms;
    std::vector<double> read_ms;
    std::vector<double> write_ms;
    std::shared_ptr<std::function<void()>> submit;
  };
  std::atomic<bool> stop{false};
  std::vector<ClientState> drivers(static_cast<std::size_t>(opt.load.clients));
  for (int c = 0; c < opt.load.clients; ++c) {
    ClientState& st = drivers[static_cast<std::size_t>(c)];
    st.node = nodes[static_cast<std::size_t>(cluster_n + c)].get();
    st.client = &static_cast<ClusterClient&>(st.node->actor());
    st.rng = std::make_unique<Rng>(opt.load.seed * 7919 +
                                   static_cast<std::uint64_t>(c));
    st.submit = std::make_shared<std::function<void()>>();
    *st.submit = [&opt, &stop, &st, &hist, record, c, cluster_n]() {
      if (stop.load(std::memory_order_relaxed)) return;
      std::string key =
          "k" + std::to_string(st.rng->next_below(
                    static_cast<std::uint64_t>(opt.load.keys)));
      bool write = st.rng->chance(opt.load.write_ratio);
      std::string value = write ? std::string(opt.load.value_size, 'x')
                                : std::string();
      // Stamped before submit, written after (when the session seq is
      // known); the completion cannot run before submit returns — both
      // execute on this client's loop thread.
      auto hist_id = record ? std::make_shared<std::uint64_t>(0)
                            : std::shared_ptr<std::uint64_t>();
      TimePoint invoked_at = record ? hist.now() : 0;
      auto resubmit = st.submit;
      auto cb = [&st, &stop, &hist, resubmit,
                 hist_id](const ClientCompletion& done) {
        if (done.has_result()) {
          if (hist_id) hist.respond(*hist_id, done.result);
          const double ms =
              static_cast<double>(done.completed - done.invoked) /
              static_cast<double>(kMillisecond);
          st.latency_ms.push_back(ms);
          (done.cmd.op == KvOp::kGet ? st.read_ms : st.write_ms).push_back(ms);
        }
        if (!stop.load(std::memory_order_relaxed)) (*resubmit)();
      };
      const KvOp op = write ? KvOp::kPut : KvOp::kGet;
      std::uint64_t seq =
          write ? st.client->submit(op, key, value, "", std::move(cb))
                : st.client->get(key, std::move(cb));
      if (hist_id) {
        Command cmd;
        cmd.origin = static_cast<ProcessId>(cluster_n + c);
        cmd.seq = seq;
        cmd.op = op;
        cmd.key = std::move(key);
        cmd.value = std::move(value);
        *hist_id = hist.invoke(cmd, invoked_at);
      }
    };
  }
  // Give the cluster a moment to elect, then open the floodgates.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  for (auto& st : drivers) {
    for (int k = 0; k < opt.load.closed_outstanding; ++k) {
      st.node->post([&st]() { (*st.submit)(); });
    }
  }
  const auto duration_ms = opt.load.duration / kMillisecond;
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // drain
  for (auto& node : nodes) node->stop();
  hist.close();
  if (record) {
    std::printf("history: %s\n", opt.load.hist_path.c_str());
  }

  // Threads are joined: pooling the per-client sample arrays is safe now.
  std::uint64_t acked = 0, timed_out = 0, retries = 0, redirects = 0;
  obs::Histogram all_ms, read_summary, write_summary;
  for (auto& st : drivers) {
    acked += st.client->acked();
    timed_out += st.client->timed_out();
    retries += st.client->retries();
    redirects += st.client->redirects();
    for (double sample : st.latency_ms) all_ms.record(sample);
    for (double sample : st.read_ms) read_summary.record(sample);
    for (double sample : st.write_ms) write_summary.record(sample);
  }
  std::uint64_t reads_local = 0, reads_ordered = 0;
  for (ProcessId p = 0; p < static_cast<ProcessId>(cluster_n); ++p) {
    auto& r =
        static_cast<KvReplica&>(nodes[static_cast<std::size_t>(p)]->actor());
    reads_local += r.reads_local();
    reads_ordered += r.reads_ordered();
  }
  const double secs = static_cast<double>(duration_ms) / 1e3;
  std::printf("acked %llu  timed_out %llu  retries %llu  redirects %llu\n",
              (unsigned long long)acked, (unsigned long long)timed_out,
              (unsigned long long)retries, (unsigned long long)redirects);
  std::printf("throughput %.0f ops/s\n",
              static_cast<double>(acked) / (secs > 0 ? secs : 1));
  if (all_ms.count() > 0) {
    std::printf("latency (%llu samples): p50 %.2f ms  p99 %.2f ms\n",
                (unsigned long long)all_ms.count(), all_ms.percentile(50),
                all_ms.percentile(99));
  }
  if (read_summary.count() > 0) {
    std::printf("reads  (%llu): p50 %.2f ms  p99 %.2f ms\n",
                (unsigned long long)read_summary.count(),
                read_summary.percentile(50), read_summary.percentile(99));
  }
  if (write_summary.count() > 0) {
    std::printf("writes (%llu): p50 %.2f ms  p99 %.2f ms\n",
                (unsigned long long)write_summary.count(),
                write_summary.percentile(50), write_summary.percentile(99));
  }
  if (opt.load.lease_reads) {
    const std::uint64_t admitted = reads_local + reads_ordered;
    std::printf("lease reads: local %llu / ordered %llu (%.0f%% local)\n",
                (unsigned long long)reads_local,
                (unsigned long long)reads_ordered,
                admitted > 0 ? 100.0 * static_cast<double>(reads_local) /
                                   static_cast<double>(admitted)
                             : 0.0);
  }

  UdpRunStats stats;
  stats.shards = shards;
  stats.acked = acked;
  stats.timed_out = timed_out;
  stats.retries = retries;
  stats.redirects = redirects;
  stats.throughput = static_cast<double>(acked) / (secs > 0 ? secs : 1);
  stats.samples = all_ms.count();
  if (all_ms.count() > 0) {
    stats.p50_ms = all_ms.percentile(50);
    stats.p99_ms = all_ms.percentile(99);
  }
  stats.reads_local = reads_local;
  stats.reads_ordered = reads_ordered;
  // Loop threads are joined: each node's registry is safe to read directly.
  for (auto& node : nodes) {
    obs::Registry& reg = node->obs().registry();
    stats.datagrams_sent += reg.counter("udp.datagrams_sent").value();
    stats.datagrams_received += reg.counter("udp.datagrams_received").value();
    stats.sendmmsg_calls += reg.counter("udp.sendmmsg_calls").value();
    stats.recvmmsg_calls += reg.counter("udp.recvmmsg_calls").value();
    stats.pool_hits += reg.counter("udp.pool_hits").value();
    stats.pool_misses += reg.counter("udp.pool_misses").value();
  }
  if (stats.sendmmsg_calls > 0) {
    std::printf("data plane: %llu datagrams / %llu sendmmsg calls "
                "(%.1f per syscall), pool hit rate %.1f%%\n",
                (unsigned long long)stats.datagrams_sent,
                (unsigned long long)stats.sendmmsg_calls,
                static_cast<double>(stats.datagrams_sent) /
                    static_cast<double>(stats.sendmmsg_calls),
                stats.pool_hits + stats.pool_misses > 0
                    ? 100.0 * static_cast<double>(stats.pool_hits) /
                          static_cast<double>(stats.pool_hits +
                                              stats.pool_misses)
                    : 0.0);
  }
  return stats;
}

/// Drives one run (or a --shard-sweep series) and writes the JSON artifact
/// consumed by tools/run_bench.sh (BENCH_shard_udp.json).
int run_udp(const CliOptions& opt) {
  std::vector<int> shard_counts = opt.shard_sweep;
  if (shard_counts.empty()) shard_counts.push_back(opt.load.shards);

  std::vector<UdpRunStats> runs;
  std::uint16_t base_port = opt.udp_base_port;
  for (int shards : shard_counts) {
    runs.push_back(run_udp_once(opt, shards, base_port));
    // Fresh ports per sweep step: no reliance on immediate rebind.
    base_port = static_cast<std::uint16_t>(
        base_port + opt.load.cluster_n + opt.load.clients + 8);
    std::printf("\n");
  }

  if (runs.size() > 1) {
    Table table({"shards", "acked", "ops/s", "p50(ms)", "p99(ms)",
                 "dgrams/syscall"});
    for (const UdpRunStats& r : runs) {
      table.add_row(
          {format("%d", r.shards), format("%llu", (unsigned long long)r.acked),
           format("%.0f", r.throughput), format("%.2f", r.p50_ms),
           format("%.2f", r.p99_ms),
           r.sendmmsg_calls > 0
               ? format("%.1f", static_cast<double>(r.datagrams_sent) /
                                    static_cast<double>(r.sendmmsg_calls))
               : std::string("-")});
    }
    table.print();
  }

  if (!opt.json_path.empty()) {
    Json json;
    json.begin_object();
    json.key("tool").value("lls_loadgen");
    json.key("host").value("udp");
    machine_stamp(json, LLS_BUILD_TYPE, LLS_SOURCE_DIR);
    json.key("config").begin_object();
    json.key("n").value(opt.load.cluster_n);
    json.key("clients").value(opt.load.clients);
    json.key("outstanding").value(opt.load.closed_outstanding);
    json.key("write_ratio").value(opt.load.write_ratio);
    json.key("value_size").value(opt.load.value_size);
    json.key("duration_ms").value(opt.load.duration / kMillisecond);
    json.key("max_batch").value(opt.batches.front());
    json.key("seed").value(opt.load.seed);
    json.end_object();
    json.key("runs").begin_array();
    for (const UdpRunStats& r : runs) {
      json.begin_object();
      json.key("shards").value(static_cast<std::int64_t>(r.shards));
      json.key("acked").value(r.acked);
      json.key("timed_out").value(r.timed_out);
      json.key("retries").value(r.retries);
      json.key("redirects").value(r.redirects);
      json.key("throughput_ops_s").value(r.throughput);
      json.key("p50_ms").value(r.p50_ms);
      json.key("p99_ms").value(r.p99_ms);
      json.key("samples").value(r.samples);
      json.key("reads_local").value(r.reads_local);
      json.key("reads_ordered").value(r.reads_ordered);
      json.key("datagrams_sent").value(r.datagrams_sent);
      json.key("datagrams_received").value(r.datagrams_received);
      json.key("sendmmsg_calls").value(r.sendmmsg_calls);
      json.key("recvmmsg_calls").value(r.recvmmsg_calls);
      json.key("datagrams_per_sendmmsg")
          .value(r.sendmmsg_calls > 0
                     ? static_cast<double>(r.datagrams_sent) /
                           static_cast<double>(r.sendmmsg_calls)
                     : 0.0);
      json.key("pool_hits").value(r.pool_hits);
      json.key("pool_misses").value(r.pool_misses);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    if (!write_json_file(opt.json_path, json)) return 1;
  }

  for (const UdpRunStats& r : runs) {
    if (r.acked == 0) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!parse_args(argc, argv, &opt)) {
    usage(argv[0]);
    return 2;
  }
  return opt.udp ? run_udp(opt) : run_sim(opt);
}
