// Crash-recovery replicated KV store: CrKvReplica = crash-recovery Omega +
// durable consensus log + KvStore rebuilt by replaying the recovered log.
// The headline property: the replicated store survives even a full-cluster
// power loss.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/topology.h"
#include "rsm/replica.h"
#include "shard/shard_map.h"
#include "sim/simulator.h"

namespace lls {
namespace {

// Heap-built: the simulator's observability plane makes it non-movable.
std::unique_ptr<Simulator> make_cr_kv_cluster(int n, std::uint64_t seed,
                                              int shards = 1) {
  SimConfig config;
  config.n = n;
  config.seed = seed;
  auto sim = std::make_unique<Simulator>(config,
                                         make_all_timely({500, 2 * kMillisecond}));
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    sim->set_actor_factory(p, [shards]() {
      LogConsensusConfig lc;
      lc.durable = true;
      return std::make_unique<CrKvReplica>(
          CrKvReplica::Options{.omega = CrOmegaConfig{},
                               .consensus = lc,
                               .replica = KvReplicaConfig{},
                               .shards = shards});
    });
  }
  return sim;
}

TEST(CrKv, BasicReplicationWorks) {
  auto sim_owner = make_cr_kv_cluster(3, 1);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(1).submit(KvOp::kPut, "a", "1");
    sim.actor_as<CrKvReplica>(2).submit(KvOp::kPut, "b", "2");
  });
  sim.start();
  sim.run_until(20 * kSecond);
  auto digest = sim.actor_as<CrKvReplica>(0).store().digest();
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(sim.actor_as<CrKvReplica>(p).store().digest(), digest);
    EXPECT_EQ(sim.actor_as<CrKvReplica>(p).store().applied(), 2u);
  }
}

TEST(CrKv, SingleReplicaRecoveryRebuildsStateFromDurableLog) {
  auto sim_owner = make_cr_kv_cluster(3, 2);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(0).submit(KvOp::kPut, "user", "alice");
    sim.actor_as<CrKvReplica>(0).submit(KvOp::kAppend, "log", "x");
  });
  sim.crash_at(2, 5 * kSecond);
  sim.recover_at(2, 8 * kSecond);
  sim.start();
  sim.run_until(30 * kSecond);

  // The recovered replica rebuilt its store (replayed the durable log and/or
  // caught up via DECIDE retransmission) and matches the others.
  auto& recovered = sim.actor_as<CrKvReplica>(2);
  EXPECT_EQ(recovered.store().digest(),
            sim.actor_as<CrKvReplica>(0).store().digest());
  auto it = recovered.store().data().find("user");
  ASSERT_NE(it, recovered.store().data().end());
  EXPECT_EQ(it->second, "alice");
}

TEST(CrKv, RecoveryAfterCompactionRestoresTheSnapshotPrefix) {
  // Regression (PR 9 audit): without the KvCore snapshot, a durable replica
  // recovering AFTER log compaction rebuilt its store from the surviving
  // log suffix only — the compacted prefix ("k0".."k7" here) silently
  // vanished and could never be re-fetched (the other replicas compacted
  // those decisions away too).
  auto sim_owner = make_cr_kv_cluster(3, 4);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    for (int i = 0; i < 8; ++i) {
      sim.actor_as<CrKvReplica>(0).submit(KvOp::kPut, "k" + std::to_string(i),
                                          "v" + std::to_string(i));
    }
  });
  sim.schedule(10 * kSecond, [&]() {
    for (ProcessId p = 0; p < 3; ++p) {
      EXPECT_GT(sim.actor_as<CrKvReplica>(p).compact_applied(), 0u);
    }
  });
  sim.crash_at(2, 12 * kSecond);
  sim.recover_at(2, 15 * kSecond);
  sim.start();
  sim.run_until(30 * kSecond);

  auto& recovered = sim.actor_as<CrKvReplica>(2);
  EXPECT_GT(recovered.consensus().compacted_upto(), 0u);
  EXPECT_EQ(recovered.store().digest(),
            sim.actor_as<CrKvReplica>(0).store().digest());
  auto it = recovered.store().data().find("k0");
  ASSERT_NE(it, recovered.store().data().end());
  EXPECT_EQ(it->second, "v0");
}

TEST(CrKv, CoordinatedCompactionClampsToTheGivenWatermark) {
  auto sim_owner = make_cr_kv_cluster(3, 5);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    for (int i = 0; i < 6; ++i) {
      sim.actor_as<CrKvReplica>(0).submit(KvOp::kPut, "k" + std::to_string(i),
                                          "v");
    }
  });
  sim.schedule(10 * kSecond, [&]() {
    auto& r = sim.actor_as<CrKvReplica>(1);
    ASSERT_GT(r.applied_upto(), 2u);
    // compact_to never outruns the cluster watermark it is handed...
    EXPECT_EQ(r.compact_to(2), 2u);
    // ...nor this replica's own applied prefix.
    EXPECT_LE(r.compact_to(r.applied_upto() + 100), r.applied_upto());
  });
  sim.start();
  sim.run_until(12 * kSecond);
}

TEST(CrKv, FullClusterPowerLossPreservesTheStore) {
  auto sim_owner = make_cr_kv_cluster(3, 3);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(0).submit(KvOp::kPut, "k1", "v1");
    sim.actor_as<CrKvReplica>(1).submit(KvOp::kPut, "k2", "v2");
    sim.actor_as<CrKvReplica>(2).submit(KvOp::kAppend, "audit", "a");
  });
  // Power loss: everyone down at 10s; staggered recovery by 13s.
  for (ProcessId p = 0; p < 3; ++p) {
    sim.crash_at(p, 10 * kSecond);
    sim.recover_at(p, 12 * kSecond + p * 300 * kMillisecond);
  }
  // Post-restart writes.
  sim.schedule(20 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(1).submit(KvOp::kAppend, "audit", "b");
  });
  sim.start();
  sim.run_until(60 * kSecond);

  for (ProcessId p = 0; p < 3; ++p) {
    const auto& store = sim.actor_as<CrKvReplica>(p).store();
    EXPECT_EQ(store.digest(), sim.actor_as<CrKvReplica>(0).store().digest());
    auto k1 = store.data().find("k1");
    ASSERT_NE(k1, store.data().end()) << "p" << p;
    EXPECT_EQ(k1->second, "v1");
    auto audit = store.data().find("audit");
    ASSERT_NE(audit, store.data().end());
    EXPECT_EQ(audit->second, "ab");  // pre-crash 'a' survived, 'b' appended
  }
}

TEST(CrKv, ExactlyOnceAcrossIncarnations) {
  // The churning replica's sequence numbers are namespaced by incarnation,
  // so post-recovery submissions are not mistaken for duplicates.
  auto sim_owner = make_cr_kv_cluster(3, 4);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(2).submit(KvOp::kAppend, "tape", ".");
  });
  sim.crash_at(2, 3 * kSecond);
  sim.recover_at(2, 5 * kSecond);
  sim.schedule(8 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(2).submit(KvOp::kAppend, "tape", ".");
  });
  sim.crash_at(2, 12 * kSecond);
  sim.recover_at(2, 14 * kSecond);
  sim.schedule(17 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(2).submit(KvOp::kAppend, "tape", ".");
  });
  sim.start();
  sim.run_until(60 * kSecond);
  auto it = sim.actor_as<CrKvReplica>(0).store().data().find("tape");
  ASSERT_NE(it, sim.actor_as<CrKvReplica>(0).store().data().end());
  EXPECT_EQ(it->second, "...");  // three appends, each applied exactly once
}

TEST(CrKv, ChurnWithSteadyWritesConverges) {
  auto sim_owner = make_cr_kv_cluster(5, 5);
  Simulator& sim = *sim_owner;
  // p4 churns; writes flow from the stable trio.
  for (TimePoint t = 2 * kSecond; t < 28 * kSecond; t += 3 * kSecond) {
    sim.crash_at(4, t);
    sim.recover_at(4, t + 1 * kSecond);
  }
  for (int i = 0; i < 30; ++i) {
    sim.schedule(1 * kSecond + i * 400 * kMillisecond, [&, i]() {
      sim.actor_as<CrKvReplica>(static_cast<ProcessId>(i % 3))
          .submit(KvOp::kAppend, "t", ".");
    });
  }
  sim.start();
  sim.run_until(120 * kSecond);
  for (ProcessId p = 0; p < 5; ++p) {
    const auto& store = sim.actor_as<CrKvReplica>(p).store();
    auto it = store.data().find("t");
    ASSERT_NE(it, store.data().end()) << "p" << p;
    EXPECT_EQ(it->second.size(), 30u) << "p" << p;
  }
}

TEST(CrKv, TwoDurableGroupsSurviveFollowerRecoveryAndPowerLoss) {
  // Each group persists under its own storage keys, so both logs and both
  // compaction snapshots survive side by side in one process's storage.
  constexpr int kShards = 2;
  constexpr int kKeys = 8;
  auto sim_owner = make_cr_kv_cluster(3, 9, kShards);
  Simulator& sim = *sim_owner;
  auto append_all = [&sim](ProcessId at, const std::string& token) {
    for (int k = 0; k < kKeys; ++k) {
      sim.actor_as<CrKvReplica>(at).submit(KvOp::kAppend,
                                           "k" + std::to_string(k), token);
    }
  };
  sim.schedule(1 * kSecond, [&]() { append_all(0, "a"); });
  sim.crash_at(2, 4 * kSecond);  // a follower misses the second round
  sim.schedule(5 * kSecond, [&]() { append_all(1, "b"); });
  sim.recover_at(2, 7 * kSecond);
  sim.schedule(15 * kSecond, [&]() {
    for (ProcessId p = 0; p < 3; ++p) {
      for (int g = 0; g < kShards; ++g) {
        EXPECT_GT(sim.actor_as<CrKvReplica>(p).group(g).compact_applied(), 0u)
            << "p" << p << " shard " << g;
      }
    }
  });
  for (ProcessId p = 0; p < 3; ++p) {
    sim.crash_at(p, 20 * kSecond);
    sim.recover_at(p, 22 * kSecond + p * 300 * kMillisecond);
  }
  sim.schedule(30 * kSecond, [&]() { append_all(2, "c"); });
  sim.start();
  sim.run_until(60 * kSecond);

  const ShardMap map(kShards);
  std::vector<int> keys_per_group(kShards, 0);
  for (int k = 0; k < kKeys; ++k) {
    ++keys_per_group[map.shard_of("k" + std::to_string(k))];
  }
  const auto& ref = sim.actor_as<CrKvReplica>(0);
  for (ProcessId p = 0; p < 3; ++p) {
    const auto& r = sim.actor_as<CrKvReplica>(p);
    ASSERT_EQ(r.shards(), kShards);
    for (int g = 0; g < kShards; ++g) {
      ASSERT_GT(keys_per_group[g], 0) << "test keys must cover every group";
      const KvStore& store = r.group(g).store();
      EXPECT_EQ(store.digest(), ref.group(g).store().digest())
          << "p" << p << " shard " << g;
      EXPECT_EQ(store.data().size(),
                static_cast<std::size_t>(keys_per_group[g]))
          << "p" << p << " shard " << g;
      for (const auto& [key, value] : store.data()) {
        EXPECT_EQ(map.shard_of(key), g) << key;
        // Every round applied exactly once, in submission order.
        EXPECT_EQ(value, "abc") << "p" << p << " " << key;
      }
    }
  }
}

}  // namespace
}  // namespace lls
