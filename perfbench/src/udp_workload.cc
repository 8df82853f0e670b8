// udp-loopback: n=3 KvReplica plus one ClusterClient node over real UDP
// sockets on 127.0.0.1 — four UdpNode loop threads, no injected delay.
//
// The open-loop generator runs on the benchmark's own thread: on each wake
// it hands every op that has come due to the client node (OpenLoopClient
// below, hosting the ClusterClient), and every op is timed from its due
// time. A run is: on each of several fresh clusters, a timed set-up, a
// fixed-rate window well below capacity (cpu_us_per_op, latency,
// unavailable_ms) and a closed-loop window (wall_ops_per_s); then a ladder
// of rising rates on one more cluster (max_rate_ops_s). A traced run
// measures each fixed-rate window twice, untimed and timed, and skips the
// closed loop.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/cluster_client.h"
#include "obs/span.h"
#include "rsm/replica.h"
#include "report.h"
#include "runtime/udp_runtime.h"
#include "workload.h"

namespace perfbench {

namespace {

using lls::ProcessId;

constexpr ProcessId kClientId = kUdpReplicas;
/// The generator's wake-up datagram type, outside every block the stack
/// uses (see OpenLoopClient).
constexpr lls::MessageType kWakeType = 0x0fff;
/// Client window. Open-loop arrivals beyond it queue in the session; the
/// bound also keeps every coalesced request batch far below the 64 KiB
/// datagram limit (an oversized batch would be dropped on every retry).
constexpr std::size_t kClientWindow = 256;
/// Fixed-rate load, ops/s: far below capacity. The single client session
/// caches 4096 results for resends, so at this rate a reply lost to a
/// scheduling stall can be re-asked for two seconds before its result is
/// evicted; past that the session waits for it forever.
constexpr double kFixedRate = 2000;
/// Closed-loop windows: ops kept outstanding, ops per window (a fixed
/// amount of work, under half a second's) and windows per cluster. With
/// four ops in flight no socket buffer can overflow, so no reply is lost
/// and the 4096 cached results are never needed for a resend.
constexpr std::size_t kClosedWindow = 4;
constexpr std::uint64_t kClosedOps = 16000;
constexpr int kClosedWindows = 2;
constexpr double kClosedSeconds = 0.45;  ///< budgeted per window
/// Reference chunks timed on each side of every window.
constexpr int kHostSamples = 16;
/// Share of a run's budget given to the load clusters; the ladder gets the
/// rest.
constexpr double kFixedShare = 0.8;
/// Budget reserved per cluster for set-up, drain and audit.
constexpr double kAuditSeconds = 0.4;
/// Ladder: rates from four times the fixed rate up in steps of 15%
/// (8k .. 350k ops/s), kRungSeconds each, as far as the budget reaches.
constexpr double kLadderStart = 4 * kFixedRate;
constexpr double kLadderStep = 1.15;
constexpr int kLadderRungs = 28;
constexpr double kRungSeconds = 0.5;
/// The generator sleeps at least this long between wakes; whatever came
/// due meanwhile goes out together.
constexpr std::int64_t kWakeGapNs = 250000;
constexpr double kWarmupFrac = 0.1;  ///< of a step, excluded from latency
/// Ω's initial leader timeout on the replicas (see UdpCluster).
constexpr lls::Duration kLeaderTimeout = 200 * lls::kMillisecond;

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

/// CPU seconds used so far by the calling thread.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// What one load step observed, filled on the client loop thread.
struct StepRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t attempted = 0;
  std::uint64_t acked = 0;
  std::vector<double> latency_ms;   ///< ops due after the step's warm-up
  std::vector<double> gen_late_ms;
  std::vector<std::int64_t> done_ns;  ///< completion times, in order
  struct Op {
    std::uint64_t seq;
    std::int64_t due_ns;
    std::int64_t done_ns;
  };
  std::vector<Op> ops;  ///< traced steps: per-op stamps for the lifecycle
};

/// Hosts the client session on its node's loop and submits the arrivals
/// the generator thread posts there. The generator follows each post with
/// a kWakeType datagram so the loop wakes at once, as it would for a
/// request arriving from the network; that datagram is swallowed here and
/// everything else is forwarded unchanged.
class OpenLoopClient final : public lls::Actor {
 public:
  OpenLoopClient(std::unique_ptr<TracingActor> host, std::uint64_t seed)
      : host_(std::move(host)), rng_(seed) {}

  void on_start(lls::Runtime& rt) override { host_->on_start(rt); }
  void on_message(lls::Runtime& rt, ProcessId src, lls::MessageType type,
                  lls::BytesView payload) override {
    if (type == kWakeType) return;
    host_->on_message(rt, src, type, payload);
  }
  void on_timer(lls::Runtime& rt, lls::TimerId timer) override {
    host_->on_timer(rt, timer);
  }

  // Loop-thread API (reach it through UdpNode::post).
  lls::ClusterClient& client() { return host_->inner_as<lls::ClusterClient>(); }

  /// Starts recording a step scheduled over [start_ns, end_ns).
  void begin_step(std::int64_t start_ns, std::int64_t end_ns, bool keep_ops) {
    step_ = std::make_shared<StepRecord>();
    step_->start_ns = start_ns;
    step_->end_ns = end_ns;
    keep_ops_ = keep_ops;
    closed_left_ = 0;
  }
  std::shared_ptr<StepRecord> step() const { return step_; }

  /// Submits the ops that came due at `dues`.
  void submit_due(const std::vector<std::int64_t>& dues) {
    const std::int64_t now = wall_ns();
    for (std::int64_t due : dues) submit(due, now);
  }

  /// Starts a closed-loop step of `ops` ops, `window` outstanding: each
  /// completion submits the next until all are submitted.
  void begin_closed_loop(std::size_t window, std::uint64_t ops) {
    const std::int64_t now = wall_ns();
    begin_step(now, now, false);
    closed_left_ = ops - window;
    for (std::size_t i = 0; i < window; ++i) submit(now, now);
  }

  /// Submits one probe op (set-up timing); `done` runs on completion.
  void probe(std::function<void()> done) {
    client().get("k0", [done = std::move(done)](const lls::ClientCompletion& c) {
      if (!c.timed_out) done();
    });
  }

  [[nodiscard]] std::size_t outstanding() {
    return client().inflight() + client().queued();
  }
  [[nodiscard]] const std::vector<std::string>& acked_tokens() const {
    return acked_tokens_;
  }

 private:
  void submit(std::int64_t due, std::int64_t now) {
    StepRecord& s = *step_;
    ++s.attempted;
    s.gen_late_ms.push_back(ms_between(due, now));
    std::string key = key_name(
        ops_++, rng_.next_below(static_cast<std::uint64_t>(kKeys)));
    const bool write = rng_.chance(0.5);
    auto record = step_;
    const bool measured =
        due >= s.start_ns + static_cast<std::int64_t>(
                                kWarmupFrac * static_cast<double>(s.end_ns - s.start_ns));
    std::string token;
    if (write) {
      char buf[kTokenBytes + 1];
      std::snprintf(buf, sizeof buf, "%04u-%010llu;", kClientId,
                    static_cast<unsigned long long>(++serial_ % 10000000000ULL));
      token = buf;
    }
    auto done = [this, record, due, measured,
                 token](const lls::ClientCompletion& c) {
      if (c.timed_out) return;
      const std::int64_t t = wall_ns();
      ++record->acked;
      record->done_ns.push_back(t);
      if (measured) record->latency_ms.push_back(ms_between(due, t));
      if (keep_ops_) record->ops.push_back({c.cmd.seq, due, t});
      if (!token.empty()) acked_tokens_.push_back(token);
      if (closed_left_ > 0) {
        --closed_left_;
        submit(t, t);
      }
    };
    if (write) {
      client().submit(lls::KvOp::kAppend, std::move(key), token, "",
                      std::move(done));
    } else {
      client().get(std::move(key), std::move(done));
    }
  }

  std::unique_ptr<TracingActor> host_;
  lls::Rng rng_;
  std::shared_ptr<StepRecord> step_;
  bool keep_ops_ = false;
  std::uint64_t closed_left_ = 0;  ///< closed-loop ops still to submit
  std::uint64_t serial_ = 0;
  std::uint64_t ops_ = 0;
  std::vector<std::string> acked_tokens_;
};

/// Sends kWakeType datagrams to the client node.
class Waker {
 public:
  explicit Waker(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    addr_.sin_family = AF_INET;
    addr_.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr_.sin_addr);
    const std::uint32_t src = kClientId;
    const std::uint16_t type = kWakeType;
    std::memcpy(frame_, &src, sizeof src);
    std::memcpy(frame_ + sizeof src, &type, sizeof type);
  }
  ~Waker() { ::close(fd_); }
  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  void wake() {
    ::sendto(fd_, frame_, sizeof frame_, 0,
             reinterpret_cast<const sockaddr*>(&addr_), sizeof addr_);
  }

 private:
  int fd_;
  sockaddr_in addr_{};
  unsigned char frame_[6] = {};  ///< UdpNode header: [src: u32][type: u16]
};

/// Runs fn on a node's loop thread and waits for its result.
template <typename Fn>
auto on_loop(lls::UdpNode& node, Fn fn) -> decltype(fn()) {
  std::promise<decltype(fn())> promise;
  auto future = promise.get_future();
  node.post([&]() {
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      promise.set_value();
    } else {
      promise.set_value(fn());
    }
  });
  return future.get();
}

/// Per-node counters read on the node's own loop thread.
struct NodeProbe {
  LayerStats layers;
  double thread_cpu_s = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t sendmmsg = 0;
  std::uint64_t recvmmsg = 0;
  std::uint64_t dgrams = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t bus_events = 0;
  std::uint64_t leader_changes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t cached_replies = 0;
  lls::Instance first_unknown = 0;
  lls::obs::Histogram decide_latency_ms;  ///< whole run, this replica
  std::uint64_t retries = 0;
  std::uint64_t client_batches = 0;
  std::uint64_t client_batched_requests = 0;
};

/// Request-lifecycle events from one replica's bus (loop-thread only).
struct LifeEvent {
  std::uint64_t seq;
  std::int64_t t_ns;
  bool apply;  ///< false: admitted while leader
  ProcessId process;
};

class UdpCluster {
 public:
  UdpCluster(std::uint16_t base_port, std::uint64_t seed, bool trace) {
    const int n = kUdpReplicas + 1;
    stats_.resize(static_cast<std::size_t>(n));
    for (auto& s : stats_) s = std::make_unique<LayerStats>();
    life_.resize(kUdpReplicas);
    recording_ = std::make_unique<bool[]>(kUdpReplicas);
    if (trace) {
      elections_ = std::make_unique<lls::obs::ElectionSpanTracker>(
          election_plane_, kUdpReplicas, 0);
      epoch_ns_ = wall_ns();
    }
    for (ProcessId p = 0; p < kUdpReplicas; ++p) {
      lls::KvReplicaConfig rc;
      rc.cluster_n = kUdpReplicas;
      // A shared host can stall a loop thread for tens of milliseconds; with
      // the default 30 ms leader timeout such a stall deposes a live leader,
      // and followers then keep any decision they missed from it missing
      // (LogConsensus drops its DECIDE retransmissions on abdication).
      lls::CeOmegaConfig oc;
      oc.initial_timeout = kLeaderTimeout;
      lls::UdpNodeConfig nc;
      nc.id = p;
      nc.n = n;
      nc.base_port = base_port;
      nc.seed = seed + p;
      auto host = std::make_unique<TracingActor>(
          std::make_unique<lls::KvReplica>(lls::KvReplica::Options{
              .omega = oc, .consensus = {}, .replica = rc}),
          Role::kReplica, *stats_[p]);
      replicas_.push_back(&host->inner_as<lls::KvReplica>());
      nodes_.push_back(std::make_unique<lls::UdpNode>(nc, std::move(host)));
      if (trace) subscribe(p);
    }
    lls::ClusterClientConfig cc;
    cc.cluster_n = kUdpReplicas;
    cc.window = kClientWindow;
    // One request per message, as in sim-steady (whose clients never have
    // two requests to coalesce): how many due ops one wake happens to pick
    // up would otherwise set the batch size, and with it msgs/op and p50.
    cc.coalesce = false;
    lls::UdpNodeConfig nc;
    nc.id = kClientId;
    nc.n = n;
    nc.base_port = base_port;
    nc.seed = seed + 1000;
    auto host = std::make_unique<OpenLoopClient>(
        std::make_unique<TracingActor>(
            std::make_unique<lls::ClusterClient>(cc), Role::kClient,
            *stats_[kClientId]),
        seed * 7919 + 17);
    client_host_ = host.get();
    nodes_.push_back(std::make_unique<lls::UdpNode>(nc, std::move(host)));
    try {
      for (auto& node : nodes_) node->start();
    } catch (...) {
      stop();
      throw;
    }
    waker_ = std::make_unique<Waker>(
        static_cast<std::uint16_t>(base_port + kClientId));
  }

  ~UdpCluster() { stop(); }
  UdpCluster(const UdpCluster&) = delete;
  UdpCluster& operator=(const UdpCluster&) = delete;

  void stop() {
    for (auto& node : nodes_) node->stop();
  }

  /// Hands arrivals that came due to the client loop and wakes it.
  void arrive(std::vector<std::int64_t> dues) {
    client_node().post(
        [this, dues = std::move(dues)]() { client_host_->submit_due(dues); });
    waker_->wake();
    ++wakes_;
  }
  /// Wake datagrams sent so far (generator thread only).
  [[nodiscard]] std::uint64_t wakes() const { return wakes_; }

  lls::UdpNode& client_node() { return *nodes_.back(); }
  OpenLoopClient& client_host() { return *client_host_; }

  /// Probes every node, switching its timing on or off.
  std::vector<NodeProbe> probe(bool timed) {
    std::vector<NodeProbe> out;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      lls::UdpNode& node = *nodes_[i];
      LayerStats& stats = *stats_[i];
      const bool replica = i < static_cast<std::size_t>(kUdpReplicas);
      out.push_back(on_loop(node, [&, replica, i]() {
        stats.timed = timed;
        if (replica) recording_[i] = timed;
        NodeProbe pr;
        pr.layers = stats;
        pr.thread_cpu_s = thread_cpu_s();
        rusage ru{};
        getrusage(RUSAGE_THREAD, &ru);
        pr.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
        lls::obs::Registry& reg = node.obs().registry();
        pr.sendmmsg = reg.counter("udp.sendmmsg_calls").value();
        pr.recvmmsg = reg.counter("udp.recvmmsg_calls").value();
        pr.dgrams = reg.counter("udp.datagrams_sent").value();
        pr.pool_hits = node.pool().hits();
        pr.pool_misses = node.pool().misses();
        const lls::obs::EventBus& bus = node.obs().bus();
        for (std::size_t t = 0; t < lls::obs::kEventTypeCount; ++t) {
          pr.bus_events += bus.count(static_cast<lls::obs::EventType>(t));
        }
        pr.leader_changes = bus.count(lls::obs::EventType::kLeaderChange);
        pr.allocs = thread_allocs();
        if (replica) {
          const lls::KvReplica& r = *replicas_[i];
          pr.cached_replies = r.cached_replies_sent();
          pr.first_unknown = r.consensus().first_unknown();
          pr.decide_latency_ms = reg.histogram("consensus_decide_latency_ms");
        } else {
          const lls::ClusterClient& c = client_host_->client();
          pr.retries = c.retries();
          pr.client_batches = c.batches_sent();
          pr.client_batched_requests = c.batched_requests();
        }
        return pr;
      }));
    }
    return out;
  }

  /// Moves the recorded lifecycle events out of every replica.
  std::vector<LifeEvent> take_life() {
    std::vector<LifeEvent> all;
    for (ProcessId p = 0; p < kUdpReplicas; ++p) {
      auto events = on_loop(*nodes_[p], [&]() { return std::move(life_[p]); });
      all.insert(all.end(), events.begin(), events.end());
    }
    return all;
  }

  /// Waits until the client has nothing outstanding; false on timeout.
  bool wait_drained(std::int64_t timeout_ns) {
    const std::int64_t deadline = wall_ns() + timeout_ns;
    while (on_loop(client_node(), [&]() { return client_host_->outstanding(); }) != 0) {
      if (wall_ns() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

  /// Waits until every replica has applied the same number of commands.
  bool wait_converged(std::int64_t timeout_ns) {
    const std::int64_t deadline = wall_ns() + timeout_ns;
    for (;;) {
      std::vector<std::uint64_t> applied;
      for (ProcessId p = 0; p < kUdpReplicas; ++p) {
        applied.push_back(on_loop(*nodes_[p], [&]() {
          return replicas_[p]->applied_count();
        }));
      }
      if (std::all_of(applied.begin(), applied.end(),
                      [&](std::uint64_t a) { return a == applied.front(); })) {
        return true;
      }
      if (wall_ns() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  /// Call after stop(): threads are joined.
  const lls::KvReplica& replica(ProcessId p) const { return *replicas_[p]; }

  /// Client and replica state, for a drain failure's error message.
  std::string describe() {
    std::string out = on_loop(client_node(), [&]() {
      const lls::ClusterClient& c = client_host_->client();
      return "client inflight " + std::to_string(c.inflight()) + " retries " +
             std::to_string(c.retries()) + " redirects " +
             std::to_string(c.redirects());
    });
    for (ProcessId p = 0; p < kUdpReplicas; ++p) {
      out += on_loop(*nodes_[p], [&]() {
        lls::KvReplica& r = *replicas_[p];
        return "; replica " + std::to_string(p) + " leader " +
               std::to_string(r.omega().leader()) + " admitted " +
               std::to_string(r.admitted_inflight()) + " applied " +
               std::to_string(r.applied_count()) + " consensus pending " +
               std::to_string(r.consensus().pending_count());
      });
    }
    return out;
  }

  lls::obs::Histogram stabilization() {
    std::scoped_lock lock(election_mu_);
    return election_plane_.registry().histogram("election_stabilization_ms");
  }

 private:
  void subscribe(ProcessId p) {
    // Subscribed before start(): the bus is only touched by the loop
    // thread from then on.
    lls::obs::EventBus& bus = nodes_[p]->obs().bus();
    subs_.push_back(bus.subscribe(
        lls::obs::mask_of(lls::obs::EventType::kClientRequest) |
            lls::obs::mask_of(lls::obs::EventType::kApply),
        [this, p](const lls::obs::Event& e) {
          if (!recording_[p] || e.peer != kClientId) return;
          const bool apply = e.type == lls::obs::EventType::kApply;
          if (!apply && replicas_[p]->omega().leader() != p) return;
          life_[p].push_back({e.a, wall_ns(), apply, p});
        }));
    // Leadership events feed one cluster-wide stabilization tracker.
    subs_.push_back(bus.subscribe(
        lls::obs::mask_of(lls::obs::EventType::kLeaderChange),
        [this](const lls::obs::Event& e) {
          lls::obs::Event copy = e;
          copy.t = (wall_ns() - epoch_ns_) / 1000;
          std::scoped_lock lock(election_mu_);
          election_plane_.bus().publish(copy);
        }));
  }

  std::vector<std::unique_ptr<LayerStats>> stats_;
  std::vector<lls::KvReplica*> replicas_;
  OpenLoopClient* client_host_ = nullptr;
  std::vector<std::vector<LifeEvent>> life_;
  std::unique_ptr<bool[]> recording_;
  std::mutex election_mu_;
  lls::obs::Plane election_plane_;
  std::unique_ptr<lls::obs::ElectionSpanTracker> elections_;
  std::int64_t epoch_ns_ = 0;
  // The loops are stopped before members go; then the subscriptions detach
  // from the still-live node buses, then the nodes go.
  std::vector<std::unique_ptr<lls::UdpNode>> nodes_;
  std::vector<lls::obs::Subscription> subs_;
  std::unique_ptr<Waker> waker_;
  std::uint64_t wakes_ = 0;
};

/// Builds a cluster on a free port block (another benchmark or a lingering
/// socket may hold one).
std::unique_ptr<UdpCluster> make_cluster(std::uint64_t seed, int attempt,
                                         bool trace) {
  for (int tries = 0; tries < 32; ++tries) {
    const auto block = (seed * 131 + static_cast<std::uint64_t>(attempt) * 7 +
                        static_cast<std::uint64_t>(tries) * 977) %
                       4000;
    const auto port = static_cast<std::uint16_t>(20000 + block * 8);
    try {
      return std::make_unique<UdpCluster>(port, seed, trace);
    } catch (const std::runtime_error&) {
      continue;  // port block busy: try the next one
    }
  }
  throw std::runtime_error("no free UDP port block on 127.0.0.1");
}

/// Runs one open-loop step on this (the generator) thread: op i is due at
/// start + i / rate, and each wake hands every op that came due to the
/// client. Waits for the step to drain; returns its record and the backlog
/// left when its schedule ended.
std::shared_ptr<StepRecord> run_step(UdpCluster& cluster, double rate,
                                     double seconds, bool keep_ops,
                                     std::size_t* backlog, bool* drained) {
  OpenLoopClient& host = cluster.client_host();
  const std::int64_t start = wall_ns() + 2000000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  on_loop(cluster.client_node(),
          [&]() { host.begin_step(start, end, keep_ops); });
  const double gap_ns = 1e9 / rate;
  auto due_of = [&](std::uint64_t i) {
    return start + static_cast<std::int64_t>(gap_ns * static_cast<double>(i));
  };
  for (std::uint64_t i = 0; due_of(i) < end;) {
    const std::int64_t now = wall_ns();
    if (due_of(i) > now) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::max(due_of(i) - now, kWakeGapNs)));
      continue;
    }
    std::vector<std::int64_t> dues;
    for (; due_of(i) < end && due_of(i) <= now; ++i) dues.push_back(due_of(i));
    cluster.arrive(std::move(dues));
  }
  *backlog = on_loop(cluster.client_node(), [&]() { return host.outstanding(); });
  *drained = cluster.wait_drained(2000000000);
  return on_loop(cluster.client_node(), [&]() { return host.step(); });
}

/// The fixed-rate window: one measured Phase.
Phase fixed_rate_phase(UdpCluster& cluster, double seconds, bool timed,
                       SpanLog* spans, std::vector<std::string>& errors) {
  Phase out;
  out.timed = timed;
  // Reference chunks (reference.h) on each side of the window, on this
  // thread: during it they would make the generator late.
  for (int i = 0; i < kHostSamples; ++i) out.host.sample();
  const std::vector<NodeProbe> p0 = cluster.probe(timed);
  const std::uint64_t wakes0 = cluster.wakes();
  const double gen_cpu0 = thread_cpu_s();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = wall_ns();
  std::size_t backlog = 0;
  bool drained = false;
  auto step = run_step(cluster, kFixedRate, seconds, timed, &backlog, &drained);
  const std::int64_t t1 = wall_ns();
  const double cpu1 = process_cpu_s();
  const double gen_cpu1 = thread_cpu_s();
  const std::vector<NodeProbe> p1 = cluster.probe(false);
  for (int i = 0; i < kHostSamples; ++i) out.host.sample();
  if (!drained) {
    errors.push_back("fixed-rate window did not drain: " + cluster.describe());
  }

  out.attempted = step->attempted;
  out.acked = step->acked;
  out.failed = step->attempted - step->acked;
  out.wall_s = static_cast<double>(t1 - t0) / 1e9;
  // The generator (this thread) is the benchmark's, not the stack's.
  out.gen_cpu_s = gen_cpu1 - gen_cpu0;
  out.gen_wakes = cluster.wakes() - wakes0;
  out.cpu_s = cpu1 - cpu0 - out.gen_cpu_s;
  out.latency_ms = step->latency_ms;
  out.gen_late_ms = step->gen_late_ms;
  for (std::int64_t gap : window_gaps(step->done_ns, step->start_ns,
                                      step->end_ns, 500000000)) {
    out.gap_ms.push_back(static_cast<double>(gap) / 1e6);
  }
  for (std::size_t i = 0; i < p0.size(); ++i) {
    out.layers.add(p1[i].layers.minus(p0[i].layers));
    out.loop_cpu_s += p1[i].thread_cpu_s - p0[i].thread_cpu_s;
    out.ctx_switches += p1[i].ctx_switches - p0[i].ctx_switches;
    out.sendmmsg_calls += p1[i].sendmmsg - p0[i].sendmmsg;
    out.recvmmsg_calls += p1[i].recvmmsg - p0[i].recvmmsg;
    out.datagrams_sent += p1[i].dgrams - p0[i].dgrams;
    out.pool_hits += p1[i].pool_hits - p0[i].pool_hits;
    out.pool_misses += p1[i].pool_misses - p0[i].pool_misses;
    out.bus_events += p1[i].bus_events - p0[i].bus_events;
    out.leader_changes += p1[i].leader_changes - p0[i].leader_changes;
    out.allocs += p1[i].allocs - p0[i].allocs;
    out.cached_replies += p1[i].cached_replies - p0[i].cached_replies;
    out.retries += p1[i].retries - p0[i].retries;
    out.client_batches += p1[i].client_batches - p0[i].client_batches;
    out.client_batched_requests +=
        p1[i].client_batched_requests - p0[i].client_batched_requests;
    out.decide_latency_ms.merge(p1[i].decide_latency_ms);
  }
  lls::Instance decided0 = 0;
  lls::Instance decided1 = 0;
  for (std::size_t i = 0; i < p0.size(); ++i) {
    decided0 = std::max(decided0, p0[i].first_unknown);
    decided1 = std::max(decided1, p1[i].first_unknown);
  }
  out.decisions = decided1 - decided0;
  if (timed) {
    // Lifecycle: admission at the leader, apply there, reply at the client.
    struct Stamps {
      std::int64_t admit = -1;
      ProcessId admitter = lls::kNoProcess;
      std::int64_t apply = -1;
    };
    std::unordered_map<std::uint64_t, Stamps> by_seq;
    std::vector<LifeEvent> events = cluster.take_life();
    std::sort(events.begin(), events.end(),
              [](const LifeEvent& a, const LifeEvent& b) { return a.t_ns < b.t_ns; });
    for (const LifeEvent& e : events) {
      Stamps& s = by_seq[e.seq];
      if (!e.apply && s.apply < 0 && s.admitter != e.process) {
        s.admit = e.t_ns;
        s.admitter = e.process;
      } else if (e.apply && e.process == s.admitter && s.apply < 0) {
        s.apply = e.t_ns;
      }
    }
    const std::int64_t warm =
        step->start_ns + static_cast<std::int64_t>(
                             kWarmupFrac * static_cast<double>(step->end_ns - step->start_ns));
    for (const auto& op : step->ops) {
      auto it = by_seq.find(op.seq);
      if (op.due_ns < warm || it == by_seq.end() || it->second.apply < 0) continue;
      const Stamps& s = it->second;
      out.to_admit_ms.record(ms_between(op.due_ns, s.admit));
      out.admit_to_apply_ms.record(ms_between(s.admit, s.apply));
      out.apply_to_reply_ms.record(ms_between(s.apply, op.done_ns));
      if (spans != nullptr) {
        const double base = static_cast<double>(step->start_ns) / 1e6;
        auto at = [base](std::int64_t ns) {
          return static_cast<double>(ns) / 1e6 - base;
        };
        const std::uint64_t root = spans->add({"request", "wall", at(op.due_ns),
                                               at(op.done_ns), 0, 0, kClientId,
                                               op.seq});
        spans->add({"client.to_admit", "wall", at(op.due_ns), at(s.admit), 0,
                    root, kClientId, op.seq});
        spans->add({"consensus.admit_to_apply", "wall", at(s.admit),
                    at(s.apply), 0, root, kClientId, op.seq});
        spans->add({"rsm.apply_to_reply", "wall", at(s.apply), at(op.done_ns),
                    0, root, kClientId, op.seq});
      }
    }
    out.stabilization_ms = cluster.stabilization();
  }
  return out;
}

/// The closed-loop window: kClosedOps ops, kClosedWindow of them kept
/// outstanding, so the rate is the stack's own. Its wall time runs from the
/// first submission to the last completion, on the client's loop thread.
Phase closed_loop_phase(UdpCluster& cluster, std::vector<std::string>& errors) {
  Phase out;
  out.closed_loop = true;
  OpenLoopClient& host = cluster.client_host();
  // Reference chunks (reference.h) just before and just after the window,
  // not during it: beside four busy loop threads on a four-core host they
  // would take a core from the load.
  for (int i = 0; i < kHostSamples; ++i) out.host.sample();
  const double cpu0 = process_cpu_s();
  on_loop(cluster.client_node(),
          [&]() { host.begin_closed_loop(kClosedWindow, kClosedOps); });
  if (!cluster.wait_drained(5000000000)) {
    errors.push_back("closed-loop window did not drain: " + cluster.describe());
  }
  const double cpu1 = process_cpu_s();
  for (int i = 0; i < kHostSamples; ++i) out.host.sample();
  auto step = on_loop(cluster.client_node(), [&]() { return host.step(); });
  out.attempted = step->attempted;
  out.acked = step->acked;
  out.failed = step->attempted - step->acked;
  if (!step->done_ns.empty()) {
    out.wall_s = static_cast<double>(step->done_ns.back() - step->start_ns) / 1e9;
  }
  out.cpu_s = cpu1 - cpu0;
  return out;
}

/// Correctness gate: after a settle every replica has applied the same
/// commands; with the loops stopped their digests must agree and every
/// acked append must sit exactly once in each store. Stops the cluster.
void audit(UdpCluster& cluster, std::vector<std::string>& errors) {
  if (!cluster.wait_drained(3000000000)) {
    errors.push_back("client did not drain: " + cluster.describe());
  }
  if (!cluster.wait_converged(3000000000)) {
    errors.push_back("replicas did not converge after the settle: " +
                     cluster.describe());
  }
  std::vector<std::string> tokens = on_loop(
      cluster.client_node(), [&]() { return cluster.client_host().acked_tokens(); });
  cluster.stop();
  const std::uint64_t digest = cluster.replica(0).store().digest();
  for (ProcessId p = 0; p < kUdpReplicas; ++p) {
    const lls::KvStore& store = cluster.replica(p).store();
    if (store.digest() != digest) {
      errors.push_back("replica " + std::to_string(p) + " store digest diverges");
    }
    std::unordered_map<std::string, int> census;
    for (const auto& [key, value] : store.data()) {
      for (std::size_t i = 0; i + kTokenBytes <= value.size(); i += kTokenBytes) {
        ++census[value.substr(i, kTokenBytes)];
      }
    }
    for (const auto& [token, count] : census) {
      if (count > 1) {
        errors.push_back("replica " + std::to_string(p) + " applied a token twice");
        break;
      }
    }
    for (const std::string& token : tokens) {
      if (census.count(token) == 0) {
        errors.push_back("replica " + std::to_string(p) + " lost an acked write");
        break;
      }
    }
  }
}

/// Builds a cluster and waits for it to serve its first op. Returns null
/// (with an error) when it serves nothing within 10 s.
std::unique_ptr<UdpCluster> serving_cluster(std::uint64_t seed, int attempt,
                                            bool trace,
                                            std::vector<std::string>& errors) {
  auto cluster = make_cluster(seed, attempt, trace);
  std::promise<void> served;
  auto served_future = served.get_future();
  on_loop(cluster->client_node(),
          [&]() { cluster->client_host().probe([&]() { served.set_value(); }); });
  if (served_future.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    errors.push_back("cluster served no request within 10 s");
    cluster->stop();  // the probe callback still references `served`
    return nullptr;
  }
  return cluster;
}

/// Ladder: rising rates until the backlog grows (the cluster is past
/// capacity), two rungs in a row miss the p99 limit, the ladder ends or
/// the budget does. Returns the highest passing rate.
double climb_ladder(UdpCluster& cluster, const std::function<double()>& left_s) {
  int misses = 0;
  double best = 0;
  double rate = kLadderStart;
  for (int rung = 0; rung < kLadderRungs && left_s() > kRungSeconds + 0.5;
       ++rung, rate *= kLadderStep) {
    std::size_t backlog = 0;
    bool drained = false;
    auto step = run_step(cluster, rate, kRungSeconds, false, &backlog, &drained);
    const double p99 = percentile(step->latency_ms, 99);
    const bool kept_up = drained && static_cast<double>(backlog) <=
                                        rate * kUdpP99LimitMs / 1000.0;
    const bool pass = kept_up && p99 <= kUdpP99LimitMs;
    std::fprintf(stderr, "ladder %.0f ops/s: p99 %.3f ms, backlog %zu, %s\n",
                 rate, p99, backlog, pass ? "pass" : "fail");
    if (pass) {
      best = rate;
      misses = 0;
    } else if (!kept_up || ++misses == 2) {
      break;
    }
  }
  return best;
}

}  // namespace

RunResult run_udp_workload(const RunConfig& config) {
  RunResult result;
  const std::int64_t t_run = wall_ns();
  const std::function<double()> left_s = [&]() {
    return config.seconds - static_cast<double>(wall_ns() - t_run) / 1e9;
  };

  // Each cluster's nodes keep their timer phases for life, and how those
  // line up decides when loop threads collide; so the load is spread over
  // several fresh clusters. Each is timed from construction to its first op
  // served (setup_s), loaded at the fixed rate and then closed loop, and
  // audited.
  constexpr int kClusters = 12;
  const double window =
      std::max(0.5, left_s() * kFixedShare / kClusters - kAuditSeconds -
                        (config.trace ? 0 : kClosedWindows * kClosedSeconds));
  for (int k = 0; k < kClusters; ++k) {
    const std::int64_t t0 = wall_ns();
    auto cluster = serving_cluster(config.seed, k, config.trace, result.errors);
    if (!cluster) return result;
    result.setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    if (config.trace) {
      // Untimed, then timed: the pair gives trace.overhead_frac.
      result.phases.push_back(fixed_rate_phase(*cluster, window / 2, false,
                                               nullptr, result.errors));
      result.phases.push_back(fixed_rate_phase(*cluster, window / 2, true,
                                               config.spans, result.errors));
    } else {
      result.phases.push_back(fixed_rate_phase(*cluster, window, false,
                                               nullptr, result.errors));
      for (int w = 0; w < kClosedWindows; ++w) {
        result.phases.push_back(closed_loop_phase(*cluster, result.errors));
      }
    }
    audit(*cluster, result.errors);
  }
  result.peak_rss_mb = peak_rss_mb();

  // The ladder drives a fresh cluster into overload, where leadership may
  // churn for longer than a run lasts; it measures capacity only, and the
  // cluster is torn down unaudited.
  auto cluster = serving_cluster(config.seed, kClusters, false, result.errors);
  if (!cluster) return result;
  result.max_rate_ops_s = climb_ladder(*cluster, left_s);
  return result;
}

}  // namespace perfbench
