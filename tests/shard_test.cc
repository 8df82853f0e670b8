// Sharded multi-group consensus tests: the ShardMap partition contract, the
// group-envelope wire mux, malformed-envelope rejection at the container
// boundary, client-burst exactly-once across groups, the replica's two data
// formats (bare frames at M = 1, envelopes at M > 1), and an end-to-end
// sharded kv campaign (M = 4, full Nemesis schedule, leader kill allowed).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/cluster_client.h"
#include "common/actor.h"
#include "net/net_stats.h"
#include "net/topology.h"
#include "rsm/replica.h"
#include "shard/shard_map.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "testing_util.h"

namespace lls {
namespace {

// --- ShardMap ---------------------------------------------------------------

TEST(ShardMap, DeterministicInRangeAndCoversAllShards) {
  const ShardMap map(4);
  EXPECT_EQ(map.shards(), 4);
  EXPECT_EQ(map.version(), 1u);

  std::set<ShardId> hit;
  for (int i = 0; i < 256; ++i) {
    const std::string key = "key" + std::to_string(i);
    const ShardId shard = map.shard_of(key);
    ASSERT_LT(shard, 4);
    EXPECT_EQ(shard, map.shard_of(key));  // same key, same owner, always
    hit.insert(shard);
  }
  EXPECT_EQ(hit.size(), 4u);  // a uniform-ish key set reaches every group

  // A second map with the same M is the same partition: the map is pure
  // function of (key, M), never of instance identity.
  const ShardMap twin(4);
  for (int i = 0; i < 64; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(map.shard_of(key), twin.shard_of(key));
  }

  EXPECT_EQ(ShardMap(0).shards(), 1);   // degenerate configs clamp to one
  EXPECT_EQ(ShardMap(-3).shards(), 1);
  EXPECT_EQ(ShardMap(1).shard_of("anything"), 0);
}

TEST(ShardMap, PartitionIsPinnedAcrossBuilds) {
  // The hash is the wire contract between clients and replicas, so it must
  // be FNV-1a exactly — not std::hash, not platform-dependent. These values
  // are precomputed; a mismatch means the partition silently moved and
  // mixed-build clusters would route the same key to different groups.
  const ShardMap m4(4);
  EXPECT_EQ(m4.shard_of("alpha"), 3);
  EXPECT_EQ(m4.shard_of("bravo"), 3);
  EXPECT_EQ(m4.shard_of("k0"), 2);
  EXPECT_EQ(m4.shard_of("k1"), 1);
  EXPECT_EQ(m4.shard_of(""), 1);
  const ShardMap m8(8);
  EXPECT_EQ(m8.shard_of("k0"), 6);
  EXPECT_EQ(m8.shard_of("k63"), 5);
}

// --- GroupEnvelopeMsg wire format -------------------------------------------

TEST(GroupEnvelope, RoundTripsAndStaysInConsensusClass) {
  GroupEnvelopeMsg env;
  env.shard = 3;
  env.inner_type = msg_type::kConsensusBase + 7;
  env.payload = Bytes{std::byte{0xde}, std::byte{0xad}, std::byte{0xbe}};

  // The decoded payload borrows into the encoded buffer: keep it alive.
  const Bytes encoded = env.encode();
  const GroupEnvelopeMsg back = GroupEnvelopeMsg::decode(encoded);
  EXPECT_EQ(back.shard, env.shard);
  EXPECT_EQ(back.inner_type, env.inner_type);
  EXPECT_EQ(back.payload, env.payload);

  const Bytes empty_bytes = GroupEnvelopeMsg{.shard = 0,
                                             .inner_type = 0x0200,
                                             .payload = {}}
                                .encode();
  const GroupEnvelopeMsg empty = GroupEnvelopeMsg::decode(empty_bytes);
  EXPECT_TRUE(empty.payload.empty());

  // Per-class accounting must keep seeing enveloped group traffic as
  // consensus traffic — the mux changes framing, not bookkeeping.
  EXPECT_EQ(NetStats::type_class(msg_type::kGroupEnvelope),
            NetStats::type_class(msg_type::kConsensusBase));
}

// --- malformed-envelope rejection at the container --------------------------

/// Fires exactly three hostile envelopes at replica 0: an out-of-range
/// shard, an inner type escaping the consensus block, and a truncated
/// header. None may reach an engine; all must be counted.
class EnvelopeInjector final : public Actor {
 public:
  void on_start(Runtime& rt) override { rt.set_timer(1 * kSecond); }
  void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
  void on_timer(Runtime& rt, TimerId) override {
    GroupEnvelopeMsg bad_shard;
    bad_shard.shard = 99;
    bad_shard.inner_type = msg_type::kConsensusBase + 1;
    bad_shard.payload = Bytes{std::byte{0}};
    rt.send(0, msg_type::kGroupEnvelope, bad_shard.encode());

    GroupEnvelopeMsg bad_type;
    bad_type.shard = 0;
    bad_type.inner_type = 0x0042;  // outside [0x0200, 0x02ff]
    bad_type.payload = Bytes{std::byte{0}};
    rt.send(0, msg_type::kGroupEnvelope, bad_type.encode());

    rt.send(0, msg_type::kGroupEnvelope,
            Bytes{std::byte{0x01}});  // truncated: no full header
  }
};

TEST(ShardedReplica, RejectsMalformedEnvelopes) {
  SimConfig sc;
  sc.n = 6;  // 5 replicas + the injector
  sc.seed = 11;
  Simulator sim(sc, make_all_timely({500, 2 * kMillisecond}));

  KvReplicaConfig rc;
  rc.cluster_n = 5;
  std::vector<KvReplica*> replicas;
  for (ProcessId p = 0; p < 5; ++p) {
    replicas.push_back(&sim.emplace_actor<KvReplica>(
        p, KvReplica::Options{.omega = CeOmegaConfig{},
                              .consensus = LogConsensusConfig{},
                              .replica = rc,
                              .shards = 4}));
  }
  sim.emplace_actor<EnvelopeInjector>(5);
  sim.start();
  sim.run_for(5 * kSecond);

  // All three hostile envelopes were dropped and counted; the legitimate
  // inter-group traffic of the healthy cluster was not (the counter is
  // exact, not a rate), and the cluster still elected a leader.
  EXPECT_EQ(replicas[0]->envelopes_rejected(), 3u);
  for (ProcessId p = 1; p < 5; ++p) {
    EXPECT_EQ(replicas[p]->envelopes_rejected(), 0u) << "replica " << p;
  }
  const ProcessId leader = replicas[0]->omega().leader();
  ASSERT_NE(leader, kNoProcess);
  for (auto* r : replicas) EXPECT_EQ(r->omega().leader(), leader);
}

// --- client burst across shards: exactly-once, coalesced --------------------

TEST(ShardedReplica, CoalescedClientBurstAppliesExactlyOnceOnEveryGroup) {
  constexpr int kShards = 4;
  constexpr int kCommands = 64;
  SimConfig sc;
  sc.n = 6;  // 5 replicas + 1 client
  sc.seed = 23;
  Simulator sim(sc, make_all_timely({500, 2 * kMillisecond}));

  KvReplicaConfig rc;
  rc.cluster_n = 5;
  std::vector<KvReplica*> replicas;
  for (ProcessId p = 0; p < 5; ++p) {
    replicas.push_back(&sim.emplace_actor<KvReplica>(
        p, KvReplica::Options{.omega = CeOmegaConfig{},
                              .consensus = LogConsensusConfig{},
                              .replica = rc,
                              .shards = kShards}));
  }
  ClusterClientConfig cc;
  cc.cluster_n = 5;
  cc.shards = kShards;
  cc.window = kCommands;
  ClusterClient& client = sim.emplace_actor<ClusterClient>(5, cc);

  // One burst, keys spread over all four groups, submitted in a single
  // execution turn so the coalescer gets a real shot at packing.
  sim.schedule(2 * kSecond, [&]() {
    for (int i = 0; i < kCommands; ++i) {
      client.submit(KvOp::kAppend, "k" + std::to_string(i), ".");
    }
  });
  sim.start();
  while (sim.now() < 30 * kSecond &&
         client.acked() < static_cast<std::uint64_t>(kCommands)) {
    sim.run_for(10 * kMillisecond);
  }
  sim.run_for(200 * kMillisecond);  // let trailing decide fan-out settle

  ASSERT_EQ(client.acked(), static_cast<std::uint64_t>(kCommands));
  EXPECT_GE(client.batches_sent(), 1u);  // coalescing actually engaged

  // Every replica applied the burst exactly once — retries and resends are
  // absorbed by session dedup, never double-applied — and the per-group
  // stores agree byte-for-byte across the cluster.
  const ShardMap map(kShards);
  std::vector<std::uint64_t> expected(kShards, 0);
  for (int i = 0; i < kCommands; ++i) {
    ++expected[map.shard_of("k" + std::to_string(i))];
  }
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_EQ(replicas[p]->applied_count(),
              static_cast<std::uint64_t>(kCommands))
        << "replica " << p;
    for (int g = 0; g < kShards; ++g) {
      EXPECT_GT(expected[g], 0u) << "test keys must cover every group";
      EXPECT_EQ(replicas[p]->group(g).applied_count(), expected[g])
          << "replica " << p << " shard " << g;
      EXPECT_EQ(replicas[p]->group(g).store().digest(),
                replicas[0]->group(g).store().digest())
          << "replica " << p << " shard " << g;
    }
    EXPECT_EQ(replicas[p]->envelopes_rejected(), 0u);
  }
}

// --- one container, two data formats -----------------------------------------

/// What a 5-replica cluster of M-group containers put on the wire while
/// committing one put per key: frames received by type (summed over
/// replicas) and the decide-latency histogram names the plane registered.
struct WireFormatRun {
  std::uint64_t envelopes = 0;
  std::uint64_t bare_accepts = 0;
  std::uint64_t applied = 0;
  std::set<std::string> decide_histograms;
};

WireFormatRun run_wire_format(int shards) {
  SimConfig sc;
  sc.n = 5;
  sc.seed = 31;
  Simulator sim(sc, make_all_timely({500, 2 * kMillisecond}));
  std::vector<testing::RecvTap*> taps;
  for (ProcessId p = 0; p < 5; ++p) {
    auto tap = std::make_unique<testing::RecvTap>(std::make_unique<KvReplica>(
        KvReplica::Options{.omega = CeOmegaConfig{},
                           .consensus = LogConsensusConfig{},
                           .replica = KvReplicaConfig{},
                           .shards = shards}));
    taps.push_back(tap.get());
    sim.set_actor(p, std::move(tap));
  }
  sim.schedule(1 * kSecond, [&]() {
    for (int k = 0; k < 16; ++k) {
      taps[1]->inner_as<KvReplica>().submit(KvOp::kPut,
                                            "k" + std::to_string(k), "v");
    }
  });
  sim.start();
  sim.run_until(10 * kSecond);
  WireFormatRun out;
  for (auto* tap : taps) {
    out.envelopes += tap->seen(msg_type::kGroupEnvelope).count;
    out.bare_accepts += tap->seen(msg_type::kAccept).count;
    out.applied += tap->inner_as<KvReplica>().applied_count();
  }
  for (const auto& [name, hist] : sim.plane().registry().histograms()) {
    if (name.rfind("consensus_decide_latency_ms", 0) == 0) {
      out.decide_histograms.insert(name);
    }
  }
  return out;
}

TEST(Replica, OneGroupSpeaksBareConsensusFrames) {
  // M = 1 is the paper's single-log stack byte for byte: no envelope on the
  // wire, and the un-suffixed decide-latency histogram only.
  const WireFormatRun run = run_wire_format(1);
  EXPECT_EQ(run.applied, 5u * 16u);
  EXPECT_EQ(run.envelopes, 0u);
  EXPECT_GT(run.bare_accepts, 0u);
  EXPECT_EQ(run.decide_histograms,
            std::set<std::string>{"consensus_decide_latency_ms"});
}

TEST(Replica, SeveralGroupsEnvelopeEveryConsensusFrame) {
  const WireFormatRun run = run_wire_format(2);
  EXPECT_EQ(run.applied, 5u * 16u);
  EXPECT_GT(run.envelopes, 0u);
  EXPECT_EQ(run.bare_accepts, 0u);
  EXPECT_EQ(run.decide_histograms,
            (std::set<std::string>{"consensus_decide_latency_ms_shard0",
                                   "consensus_decide_latency_ms_shard1"}));
}

// --- end-to-end: sharded kv campaign under Nemesis with a leader kill -------

TEST(ShardedCampaign, KvLinearizableM4SurvivesChaosAndLeaderKill) {
  CampaignConfig config;
  config.scenario = Scenario::kKvLinearizable;
  config.n = 5;
  config.shards = 4;
  config.first_seed = 1;
  config.seeds = 2;
  config.horizon = 40 * kSecond;
  config.quiesce = 12 * kSecond;
  config.check_window = 5 * kSecond;
  config.crash_stop_budget = 1;  // Nemesis may kill the leader mid-run
  config.kv_ops = 160;
  config.kv_keys = 8;

  CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.runs, 2);
  EXPECT_TRUE(result.ok())
      << (result.violations.empty() ? "budget exceeded"
                                    : result.violations[0].what);

  // Sharded runs replay with their shard count pinned, and the same
  // (config, seed) is bit-identical on a re-run.
  EXPECT_NE(replay_command(config, 1).find("--shards=4"), std::string::npos);
  CaseResult a = run_campaign_case(config, 1);
  CaseResult b = run_campaign_case(config, 1);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.violations.empty());
}

}  // namespace
}  // namespace lls
