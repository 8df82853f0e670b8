// Crash-recovery consensus tests (durable LogConsensus + CrOmegaStable).
//
// The crash-recovery literature that extends this paper's efficiency notion
// leaves "consensus on crash-recovery Omega" as future work; this module
// exercises our implementation of it: the classical durable-acceptor
// discipline (promise/accepted pairs and the decided log persisted before
// replies) under crash/recovery churn, full restarts, and an unstable
// process.
#include <gtest/gtest.h>

#include <memory>

#include "common/mux.h"
#include "consensus/experiment.h"
#include "consensus/log_consensus.h"
#include "net/topology.h"
#include "omega/cr_omega.h"
#include "sim/nemesis.h"
#include "sim/simulator.h"
#include "testing_util.h"

namespace lls {
namespace {

using testing::DurableFakeRuntime;

/// Crash-recovery node: CrOmegaStable (leader oracle for the model) +
/// durable LogConsensus, composed under a mux.
class CrNode final : public Actor {
 public:
  CrNode() : omega_(CrOmegaConfig{}), consensus_(durable_config(), &omega_) {
    mux_.add_child(omega_, 0x0100, 0x01ff);
    mux_.add_child(consensus_, 0x0200, 0x02ff);
  }

  static LogConsensusConfig durable_config() {
    LogConsensusConfig c;
    c.durable = true;
    return c;
  }

  void on_start(Runtime& rt) override { mux_.on_start(rt); }
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override {
    mux_.on_message(rt, src, type, payload);
  }
  void on_timer(Runtime& rt, TimerId timer) override {
    mux_.on_timer(rt, timer);
  }

  CrOmegaStable& omega() { return omega_; }
  LogConsensus& consensus() { return consensus_; }

 private:
  CrOmegaStable omega_;
  LogConsensus consensus_;
  MuxActor mux_;
};

// Heap-built: the simulator's observability plane makes it non-movable.
std::unique_ptr<Simulator> make_cr_consensus_cluster(int n,
                                                     std::uint64_t seed) {
  SimConfig config;
  config.n = n;
  config.seed = seed;
  auto sim = std::make_unique<Simulator>(config,
                                         make_all_timely({500, 2 * kMillisecond}));
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    sim->set_actor_factory(p, []() { return std::make_unique<CrNode>(); });
  }
  return sim;
}

// --- unit: durable acceptor discipline ---------------------------------------

class NullOmega final : public OmegaActor {
 public:
  void on_start(Runtime&) override {}
  void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
  void on_timer(Runtime&, TimerId) override {}
  [[nodiscard]] ProcessId leader() const override { return 0; }
};

Bytes val(std::uint8_t x) { return Bytes{std::byte{x}}; }

TEST(DurableAcceptor, PromiseSurvivesCrash) {
  NullOmega omega;
  DurableFakeRuntime rt(/*id=*/2, /*n=*/3);
  {
    LogConsensus acceptor(CrNode::durable_config(), &omega);
    acceptor.on_start(rt);
    acceptor.on_message(rt, 0, msg_type::kPrepare, PrepareMsg{9, 0}.encode());
    EXPECT_EQ(acceptor.acceptor().promised(), 9);
  }
  // "Crash": a brand-new instance over the same storage.
  LogConsensus recovered(CrNode::durable_config(), &omega);
  recovered.on_start(rt);
  EXPECT_EQ(recovered.acceptor().promised(), 9);
  // A lower prepare must still be rejected after recovery.
  rt.inner_.clear_sent();
  recovered.on_message(rt, 1, msg_type::kPrepare, PrepareMsg{4, 0}.encode());
  EXPECT_EQ(rt.inner_.count_sent(1, msg_type::kNack), 1);
}

TEST(DurableAcceptor, AcceptedPairAndDecisionSurviveCrash) {
  NullOmega omega;
  DurableFakeRuntime rt(/*id=*/2, /*n=*/3);
  {
    LogConsensus acceptor(CrNode::durable_config(), &omega);
    acceptor.on_start(rt);
    acceptor.on_message(rt, 0, msg_type::kAccept,
                        AcceptMsg{3, 0, 0, val(7)}.encode());
    acceptor.on_message(rt, 0, msg_type::kDecide,
                        DecideMsg{1, val(9)}.encode());
  }
  std::vector<std::pair<Instance, Bytes>> replayed;
  LogConsensus recovered(CrNode::durable_config(), &omega);
  // The payload view is only valid during the publish: copy it out.
  obs::Subscription sub = rt.obs().bus().subscribe(
      obs::mask_of(obs::EventType::kDecide), [&](const obs::Event& e) {
        replayed.emplace_back(e.a, Bytes(e.payload.begin(), e.payload.end()));
      });
  recovered.on_start(rt);
  const auto* pair = recovered.acceptor().accepted(0);
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(pair->round, 3);
  EXPECT_EQ(pair->value, val(7));
  ASSERT_TRUE(recovered.decision(1).has_value());
  EXPECT_EQ(*recovered.decision(1), val(9));
  // No contiguous prefix yet (instance 0 undecided): nothing replayed.
  EXPECT_TRUE(replayed.empty());

  // Once instance 0 decides, the listener replays in order.
  recovered.on_message(rt, 0, msg_type::kDecide, DecideMsg{0, val(7)}.encode());
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].first, 0u);
  EXPECT_EQ(replayed[1].first, 1u);
}

TEST(DurableAcceptor, EachGroupPersistsUnderItsOwnKey) {
  // The only log of a process keeps the historical key; a log that is group
  // g of a multi-group replica persists under a key tagged g + 1, so
  // co-located durable logs never overwrite each other.
  NullOmega omega;
  DurableFakeRuntime rt(/*id=*/2, /*n=*/3);
  LogConsensusConfig grouped = CrNode::durable_config();
  grouped.shard = 1;
  {
    LogConsensus only(CrNode::durable_config(), &omega);
    LogConsensus group1(grouped, &omega);
    only.on_start(rt);
    group1.on_start(rt);
    only.on_message(rt, 0, msg_type::kPrepare, PrepareMsg{9, 0}.encode());
    group1.on_message(rt, 0, msg_type::kPrepare, PrepareMsg{6, 0}.encode());
  }
  EXPECT_EQ(rt.storage_.keys(), 2u);
  EXPECT_TRUE(rt.storage_.read("log_consensus/state").has_value());
  EXPECT_TRUE(rt.storage_.read("log_consensus/state/2").has_value());
  LogConsensus recovered(grouped, &omega);
  recovered.on_start(rt);
  EXPECT_EQ(recovered.acceptor().promised(), 6);
}

// --- integration: churn and restarts ------------------------------------------

TEST(DurableConsensus, DecidesThroughRecoveryChurn) {
  auto sim_owner = make_cr_consensus_cluster(5, 21);
  Simulator& sim = *sim_owner;
  // p4 churns forever; p3 bounces once mid-run. Majority {0, 1, 2} stays up.
  for (TimePoint t = 2 * kSecond; t < 56 * kSecond; t += 3 * kSecond) {
    sim.crash_at(4, t);
    sim.recover_at(4, t + 1 * kSecond);
  }
  sim.crash_at(3, 5 * kSecond);
  sim.recover_at(3, 9 * kSecond);

  constexpr int kValues = 25;
  for (int k = 0; k < kValues; ++k) {
    sim.schedule(1 * kSecond + k * 400 * kMillisecond, [&, k]() {
      auto submitter = static_cast<ProcessId>(k % 3);  // always-up subset
      sim.actor_as<CrNode>(submitter).consensus().propose(
          make_value(static_cast<std::uint64_t>(k + 1)));
    });
  }
  sim.start();
  sim.run_until(120 * kSecond);

  // All always-up processes have the full log and agree.
  Instance len = sim.actor_as<CrNode>(0).consensus().first_unknown();
  EXPECT_GE(len, static_cast<Instance>(kValues));
  for (ProcessId p = 0; p < 3; ++p) {
    auto& c = sim.actor_as<CrNode>(p).consensus();
    EXPECT_GE(c.first_unknown(), static_cast<Instance>(kValues));
  }
  for (Instance i = 0; i < len; ++i) {
    auto expected = sim.actor_as<CrNode>(0).consensus().decision(i);
    ASSERT_TRUE(expected.has_value());
    for (ProcessId p = 1; p < 3; ++p) {
      auto v = sim.actor_as<CrNode>(p).consensus().decision(i);
      ASSERT_TRUE(v.has_value()) << "p" << p << " instance " << i;
      EXPECT_EQ(*v, *expected);
    }
  }
  // The recovered p3 catches up too (durable log + decide retransmission).
  EXPECT_GE(sim.actor_as<CrNode>(3).consensus().first_unknown(),
            static_cast<Instance>(kValues));
}

TEST(DurableConsensus, FullClusterRestartPreservesDecisionsAndContinues) {
  auto sim_owner = make_cr_consensus_cluster(3, 22);
  Simulator& sim = *sim_owner;
  for (int k = 0; k < 5; ++k) {
    sim.schedule(1 * kSecond + k * 100 * kMillisecond, [&, k]() {
      sim.actor_as<CrNode>(0).consensus().propose(
          make_value(static_cast<std::uint64_t>(k + 1)));
    });
  }
  // Everybody crashes at 10s; everybody recovers by 12s.
  for (ProcessId p = 0; p < 3; ++p) {
    sim.crash_at(p, 10 * kSecond);
    sim.recover_at(p, 12 * kSecond + p * 100 * kMillisecond);
  }
  // New proposals after the restart.
  for (int k = 5; k < 10; ++k) {
    sim.schedule(20 * kSecond + (k - 5) * 100 * kMillisecond, [&, k]() {
      sim.actor_as<CrNode>(1).consensus().propose(
          make_value(static_cast<std::uint64_t>(k + 1)));
    });
  }
  sim.start();
  sim.run_until(90 * kSecond);

  for (ProcessId p = 0; p < 3; ++p) {
    auto& c = sim.actor_as<CrNode>(p).consensus();
    EXPECT_GE(c.first_unknown(), 10u) << "p" << p;
  }
  // Pre-restart decisions are intact and identical everywhere.
  for (Instance i = 0; i < 10; ++i) {
    auto expected = sim.actor_as<CrNode>(0).consensus().decision(i);
    ASSERT_TRUE(expected.has_value()) << "instance " << i;
    for (ProcessId p = 1; p < 3; ++p) {
      auto v = sim.actor_as<CrNode>(p).consensus().decision(i);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, *expected);
    }
  }
}

TEST(DurableConsensus, SafetyHoldsAcrossRepeatedLeaderRestarts) {
  auto sim_owner = make_cr_consensus_cluster(3, 23);
  Simulator& sim = *sim_owner;
  // The perpetual leader candidate p0 bounces repeatedly while proposals
  // flow from p1 and p2: ballots and durable promises must serialize
  // everything without divergence.
  for (TimePoint t = 3 * kSecond; t < 40 * kSecond; t += 6 * kSecond) {
    sim.crash_at(0, t);
    sim.recover_at(0, t + 2 * kSecond);
  }
  for (int k = 0; k < 20; ++k) {
    sim.schedule(1 * kSecond + k * 500 * kMillisecond, [&, k]() {
      auto submitter = static_cast<ProcessId>(1 + k % 2);
      sim.actor_as<CrNode>(submitter).consensus().propose(
          make_value(static_cast<std::uint64_t>(k + 1)));
    });
  }
  sim.start();
  sim.run_until(120 * kSecond);

  Instance len = sim.actor_as<CrNode>(1).consensus().first_unknown();
  EXPECT_GE(len, 20u);
  for (Instance i = 0; i < len; ++i) {
    auto a = sim.actor_as<CrNode>(1).consensus().decision(i);
    auto b = sim.actor_as<CrNode>(2).consensus().decision(i);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b) << "instance " << i;
  }
}

}  // namespace
}  // namespace lls

namespace lls {
namespace {

TEST(DurableConsensus, SurvivesNemesisChaosPlusRecoveries) {
  // Both extension axes at once: randomized link chaos (healing by 15s)
  // and process crash/recovery churn, over the durable stack.
  SimConfig config;
  config.n = 5;
  config.seed = 77;
  LinkFactory base = make_all_timely({500, 2 * kMillisecond});
  Simulator sim(config, base);
  for (ProcessId p = 0; p < 5; ++p) {
    sim.set_actor_factory(p, []() { return std::make_unique<CrNode>(); });
  }
  NemesisConfig nc;
  nc.seed = 7;
  nc.quiesce = 15 * kSecond;
  Nemesis nemesis(sim, base, nc);
  sim.crash_at(4, 3 * kSecond);
  sim.recover_at(4, 6 * kSecond);
  sim.crash_at(3, 9 * kSecond);
  sim.recover_at(3, 12 * kSecond);

  for (int k = 0; k < 15; ++k) {
    sim.schedule(1 * kSecond + k * 600 * kMillisecond, [&, k]() {
      sim.actor_as<CrNode>(static_cast<ProcessId>(k % 3)).consensus().propose(
          make_value(static_cast<std::uint64_t>(k + 1)));
    });
  }
  sim.start();
  sim.run_until(120 * kSecond);

  Instance len = sim.actor_as<CrNode>(0).consensus().first_unknown();
  EXPECT_GE(len, 15u);
  for (Instance i = 0; i < len; ++i) {
    auto expected = sim.actor_as<CrNode>(0).consensus().decision(i);
    ASSERT_TRUE(expected.has_value());
    for (ProcessId p = 1; p < 5; ++p) {
      auto v = sim.actor_as<CrNode>(p).consensus().decision(i);
      ASSERT_TRUE(v.has_value()) << "p" << p << " i" << i;
      EXPECT_EQ(*v, *expected);
    }
  }
}

}  // namespace
}  // namespace lls
