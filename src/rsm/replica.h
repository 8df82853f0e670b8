// BasicReplica: a replicated key-value node — the full paper stack applied.
//
// Layering (one Actor per process):
//   Omega        — elects the leader (communication-efficient);
//   LogConsensus — orders commands (leader-driven, Θ(n) steady state);
//   KvCore       — deduplicates decided commands, applies them to the
//                  deterministic KvStore, and serves external client
//                  sessions (0x03xx protocol): redirects, admission with
//                  BUSY backpressure, batching, cached exactly-once replies.
//
// The replica is a container of M >= 1 consensus groups (KvCores) behind a
// single Actor, sharing
//   * one network endpoint — each group talks through a per-group Runtime
//     view, so the M logs multiplex over the same typed fair-lossy links;
//   * one leader oracle — a single Omega instance feeds every co-located
//     group its leader() output, so election/heartbeat traffic does NOT
//     multiply by M (the López et al. weak-channel argument: one oracle
//     serves any number of decision sequences). Consequently all groups of
//     a stable deployment share one leader process, and a client's
//     per-shard leader caches converge to the same replica.
//
// Each group keeps the paper's per-shard guarantees: Θ(n) messages per
// decision driven by the one leader, safety unconditional. Aggregate
// throughput scales with M because the M leaders' pipelines (windows,
// batches) run independently — see bench_shard_scaling.
//
// The data format is decided here and only here (enveloped()):
//   * M = 1 — consensus frames travel bare, the group keeps shard -1 (kDecide
//     tag 0, the un-suffixed decide-latency histogram, kNoShard redirects,
//     the un-tagged storage keys), and client frames go to the one group
//     without being decoded. This is the paper's stack, byte for byte.
//   * M > 1 — group g's consensus frames leave wrapped in a GroupEnvelopeMsg
//     and are unwrapped and routed here on the way in; client 0x031x
//     messages arrive unenveloped and are routed by a hash of the command
//     key (a coalesced batch spanning shards is split and re-packed per
//     group); replies carry no shard routing — the client matches by seq.
//
// Durability: every group's durable state lives under per-group storage
// keys (LogConsensus and KvCore tag them with the group), so a
// crash-recovery replica rebuilds all M stores from its stable storage.
#pragma once

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/actor.h"
#include "omega/ce_omega.h"
#include "omega/cr_omega.h"
#include "rsm/kv_core.h"
#include "shard/shard_map.h"

namespace lls {

/// Generic over the leader oracle: KvReplica (below) instantiates it with
/// the paper's crash-stop CE-Omega; CrKvReplica with the crash-recovery
/// stable-storage Omega plus a durable consensus log, giving a replicated
/// store that survives even full-cluster restarts (the recovered log is
/// replayed into a fresh KvStore).
template <typename OmegaT, typename OmegaConfigT>
class BasicReplica final : public Actor {
 public:
  using Callback = KvCore::Callback;

  /// Aggregate options: one named place for every knob of the stack.
  /// Designated initializers keep call sites self-documenting:
  ///   KvReplica r({.omega = {...}, .consensus = {...}, .replica = {...}});
  struct Options {
    OmegaConfigT omega;
    /// Per-group consensus template. With M > 1 the container stamps each
    /// copy with its shard index (events, histograms, redirects, leases and
    /// storage keys pick up the per-shard identity from there). Per-group
    /// leases all ride the ONE shared Omega: each group's fence/support
    /// accounting is independent, but the oracle's self-belief (and its
    /// lease hint, if configured) is container-wide.
    LogConsensusConfig consensus;
    /// Per-group replica knobs (admission window, batching, cluster size).
    /// The admission high-water mark applies per group.
    KvReplicaConfig replica;
    /// Consensus groups per process (M >= 1; smaller values clamp to 1).
    int shards = 1;
  };

  explicit BasicReplica(const Options& options)
      : map_(options.shards), omega_(options.omega) {
    groups_.reserve(static_cast<std::size_t>(map_.shards()));
    for (int g = 0; g < map_.shards(); ++g) {
      LogConsensusConfig cc = options.consensus;
      if (enveloped()) cc.shard = g;
      auto& core = *groups_.emplace_back(std::make_unique<KvCore>(
          KvCoreOptions{&omega_, cc, options.replica}));
      // Sequence numbers must be unique across a process's incarnations: a
      // crash-recovery replica namespaces them by the omega's incarnation
      // number (read lazily, after the omega has started), a crash-stop one
      // starts at 1.
      if constexpr (requires { omega_.incarnation(); }) {
        core.set_initial_seq(
            [this] { return (omega_.incarnation() << 32) + 1; });
      }
    }
  }

  // Actor ------------------------------------------------------------------
  void on_start(Runtime& rt) override {
    const int cluster_n = groups_[0]->config().cluster_n > 0
                              ? groups_[0]->config().cluster_n
                              : rt.n();
    // Runtime view handed to the whole stack: n() is the cluster size, so
    // clients sharing the fabric never enter quorums or heartbeat fan-outs.
    cluster_rt_.bind(rt, cluster_n);
    omega_rt_ = std::make_unique<GroupRuntime>(*this, kOmegaOwner);
    omega_.on_start(*omega_rt_);
    group_rts_.reserve(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      group_rts_.push_back(
          std::make_unique<GroupRuntime>(*this, static_cast<int>(g)));
      groups_[g]->on_start(*group_rts_[g]);
    }
  }

  void on_message(Runtime&, ProcessId src, MessageType type,
                  BytesView payload) override {
    if (type >= 0x0100 && type <= 0x01ff) {
      omega_.on_message(*omega_rt_, src, type, payload);
      return;
    }
    if (type == msg_type::kGroupEnvelope) {
      route_envelope(src, payload);
      return;
    }
    if (!enveloped()) {
      // One group: bare consensus frames and undecoded client frames.
      deliver(0, src, type, payload);
      return;
    }
    if (type == msg_type::kClientRequest) {
      route_client_request(src, payload);
      return;
    }
    if (type == msg_type::kClientRequestBatch) {
      route_client_batch(src, payload);
      return;
    }
    // Bare (unenveloped) consensus traffic has no group when M > 1: drop.
    // Mixed M = 1 / M > 1 clusters are a config error.
  }

  void on_timer(Runtime&, TimerId timer) override {
    auto it = timer_owner_.find(timer);
    if (it == timer_owner_.end()) return;  // cancelled or unknown
    const int owner = it->second;
    timer_owner_.erase(it);
    if (owner == kOmegaOwner) {
      omega_.on_timer(*omega_rt_, timer);
    } else {
      groups_[static_cast<std::size_t>(owner)]->on_timer(
          *group_rts_[static_cast<std::size_t>(owner)], timer);
    }
  }

  // Client surface ----------------------------------------------------------
  /// Submits a local command to the owning group (routed by key hash);
  /// `cb` (optional) fires when the command is applied locally.
  std::uint64_t submit(KvOp op, std::string key, std::string value = "",
                       std::string expected = "", Callback cb = nullptr) {
    KvCore& core = *groups_[map_.shard_of(key)];
    return core.submit(op, std::move(key), std::move(value),
                       std::move(expected), std::move(cb));
  }

  [[nodiscard]] const ShardMap& shard_map() const { return map_; }
  [[nodiscard]] int shards() const { return map_.shards(); }
  OmegaT& omega() { return omega_; }
  [[nodiscard]] const OmegaT& omega() const { return omega_; }
  KvCore& group(int g) { return *groups_[static_cast<std::size_t>(g)]; }
  [[nodiscard]] const KvCore& group(int g) const {
    return *groups_[static_cast<std::size_t>(g)];
  }

  // Single-log shorthands: group(0), the only group when M = 1 ---------------
  [[nodiscard]] const KvStore& store() const { return group(0).store(); }
  LogConsensus& consensus() { return group(0).consensus(); }
  [[nodiscard]] const LogConsensus& consensus() const {
    return group(0).consensus();
  }
  [[nodiscard]] Instance applied_upto() const {
    return group(0).applied_upto();
  }
  [[nodiscard]] bool lease_valid() const {
    return group(0).consensus().lease_valid();
  }
  /// Compacts group 0's log below its applied watermark, snapshotting the
  /// store first when durable (see KvCore::compact_applied).
  Instance compact_applied() { return group(0).compact_applied(); }
  /// Coordinated compaction of group 0 bounded by a cluster-wide watermark
  /// (see KvCore::compact_to).
  Instance compact_to(Instance upto) { return group(0).compact_to(upto); }

  // Aggregate introspection (sums over groups) -------------------------------
  [[nodiscard]] std::uint64_t applied_count() const {
    return sum(&KvCore::applied_count);
  }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return sum(&KvCore::duplicates_suppressed);
  }
  [[nodiscard]] std::uint64_t busy_sent() const {
    return sum(&KvCore::busy_sent);
  }
  [[nodiscard]] std::uint64_t redirects_sent() const {
    return sum(&KvCore::redirects_sent);
  }
  [[nodiscard]] std::uint64_t client_replies_sent() const {
    return sum(&KvCore::client_replies_sent);
  }
  [[nodiscard]] std::uint64_t cached_replies_sent() const {
    return sum(&KvCore::cached_replies_sent);
  }
  [[nodiscard]] std::uint64_t reads_local() const {
    return sum(&KvCore::reads_local);
  }
  [[nodiscard]] std::uint64_t reads_ordered() const {
    return sum(&KvCore::reads_ordered);
  }
  [[nodiscard]] std::size_t admitted_inflight() const {
    return sum(&KvCore::admitted_inflight);
  }
  /// Groups whose leader lease is valid at this instant (0..shards). All
  /// groups share one oracle, so on a stable leader this converges to M.
  [[nodiscard]] int lease_valid_groups() const {
    int count = 0;
    for (const auto& g : groups_) {
      if (g->consensus().lease_valid()) ++count;
    }
    return count;
  }
  /// Envelopes dropped for an out-of-range shard id, an inner type outside
  /// the consensus block, or an undecodable header.
  [[nodiscard]] std::uint64_t envelopes_rejected() const {
    return envelopes_rejected_;
  }
  /// Client requests dropped because the command blob would not decode.
  [[nodiscard]] std::uint64_t requests_rejected() const {
    return requests_rejected_;
  }

 private:
  static constexpr int kOmegaOwner = -1;

  /// The one switch between the two data formats (see the file comment).
  [[nodiscard]] bool enveloped() const { return map_.shards() > 1; }

  /// Per-group view of the shared endpoint: with M > 1, consensus-block
  /// sends leave wrapped in this group's envelope; everything else (client
  /// replies, Omega traffic for the oracle's view, every frame when M = 1)
  /// passes through untouched. Timers are tagged with their owner so the
  /// container can route the callback.
  class GroupRuntime final : public Runtime {
   public:
    GroupRuntime(BasicReplica& host, int owner) : host_(host), owner_(owner) {}

    [[nodiscard]] ProcessId id() const override {
      return host_.cluster_rt_.id();
    }
    [[nodiscard]] int n() const override { return host_.cluster_rt_.n(); }
    [[nodiscard]] TimePoint now() const override {
      return host_.cluster_rt_.now();
    }

    void send(ProcessId dst, MessageType type, BytesView payload) override {
      if (owner_ >= 0 && host_.enveloped() && type >= 0x0200 &&
          type <= 0x02ff) {
        // Wrap without copying: the envelope borrows the inner frame and
        // encodes into a pooled buffer consumed synchronously by send.
        GroupEnvelopeMsg env;
        env.shard = static_cast<ShardId>(owner_);
        env.inner_type = type;
        env.payload = WireBlob::ref(payload);
        host_.cluster_rt_.send(dst, msg_type::kGroupEnvelope,
                               wire::encode_pooled(pool(), env).view());
        return;
      }
      host_.cluster_rt_.send(dst, type, payload);
    }

    TimerId set_timer(Duration delay) override {
      TimerId id = host_.cluster_rt_.set_timer(delay);
      host_.timer_owner_[id] = owner_;
      return id;
    }
    void cancel_timer(TimerId timer) override {
      host_.timer_owner_.erase(timer);
      host_.cluster_rt_.cancel_timer(timer);
    }

    Rng& rng() override { return host_.cluster_rt_.rng(); }
    [[nodiscard]] StableStorage* storage() override {
      return host_.cluster_rt_.storage();
    }
    [[nodiscard]] obs::Plane& obs() override {
      return host_.cluster_rt_.obs();
    }
    [[nodiscard]] BufferPool& pool() override {
      return host_.cluster_rt_.pool();
    }

   private:
    BasicReplica& host_;
    int owner_;  // kOmegaOwner or a shard index
  };

  void deliver(std::size_t g, ProcessId src, MessageType type,
               BytesView payload) {
    groups_[g]->on_message(*group_rts_[g], src, type, payload);
  }

  void route_envelope(ProcessId src, BytesView payload) {
    GroupEnvelopeMsg env;
    try {
      env = GroupEnvelopeMsg::decode(payload);
    } catch (const SerializationError&) {
      ++envelopes_rejected_;
      return;
    }
    if (env.shard >= static_cast<ShardId>(map_.shards()) ||
        env.inner_type < 0x0200 || env.inner_type > 0x02ff) {
      ++envelopes_rejected_;
      return;
    }
    // Synchronous dispatch: the decoded borrow stays valid for the
    // duration of the inner delivery.
    deliver(env.shard, src, env.inner_type, env.payload.view());
  }

  void route_client_request(ProcessId src, BytesView payload) {
    ShardId shard = kNoShard;
    try {
      ClientRequestMsg req = ClientRequestMsg::decode(payload);
      shard = map_.shard_of(Command::decode(req.command.view()).key);
    } catch (const SerializationError&) {
      ++requests_rejected_;
      return;
    }
    deliver(shard, src, msg_type::kClientRequest, payload);
  }

  void route_client_batch(ProcessId src, BytesView payload) {
    ClientRequestBatchMsg req;
    try {
      req = ClientRequestBatchMsg::decode(payload);
    } catch (const SerializationError&) {
      ++requests_rejected_;
      return;
    }
    // One client batch may span shards (the client packs per destination,
    // not per group): split it and re-pack per owning group.
    std::vector<ClientRequestBatchMsg> per_shard(
        static_cast<std::size_t>(map_.shards()));
    for (auto& item : req.items) {
      ShardId shard = kNoShard;
      try {
        shard = map_.shard_of(Command::decode(item.command.view()).key);
      } catch (const SerializationError&) {
        ++requests_rejected_;
        continue;
      }
      per_shard[shard].items.push_back(std::move(item));
    }
    for (std::size_t g = 0; g < per_shard.size(); ++g) {
      if (per_shard[g].items.empty()) continue;
      // Items still borrow the original receive buffer (valid until this
      // routing callback returns); the per-group frame is pooled and the
      // dispatch below consumes it synchronously.
      auto encoded = wire::encode_pooled(cluster_rt_.pool(), per_shard[g]);
      deliver(g, src, msg_type::kClientRequestBatch, encoded.view());
    }
  }

  template <typename Fn>
  [[nodiscard]] auto sum(Fn fn) const {
    decltype((*groups_[0].*fn)()) total = 0;
    for (const auto& g : groups_) total += (*g.*fn)();
    return total;
  }

  ShardMap map_;
  OmegaT omega_;
  std::vector<std::unique_ptr<KvCore>> groups_;
  /// Cluster view of the fabric runtime (n() = replica count), shared by
  /// the oracle and every group.
  ClusterViewRuntime cluster_rt_;
  std::unique_ptr<GroupRuntime> omega_rt_;
  std::vector<std::unique_ptr<GroupRuntime>> group_rts_;
  std::unordered_map<TimerId, int> timer_owner_;
  std::uint64_t envelopes_rejected_ = 0;
  std::uint64_t requests_rejected_ = 0;
};

/// The paper's crash-stop replica.
using KvReplica = BasicReplica<CeOmega, CeOmegaConfig>;

/// Crash-recovery replica: pair with LogConsensusConfig::durable = true and
/// the simulator's crash-recovery mode; every group's store is rebuilt from
/// its replayed durable log on every recovery.
using CrKvReplica = BasicReplica<CrOmegaStable, CrOmegaConfig>;

}  // namespace lls
