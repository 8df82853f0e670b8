// Crash-recovery consensus tests (durable LogConsensus + CrOmegaStable).
//
// The crash-recovery literature that extends this paper's efficiency notion
// leaves "consensus on crash-recovery Omega" as future work; this module
// exercises our implementation of it: the classical durable-acceptor
// discipline (promise/accepted pairs and the decided log persisted before
// replies) under crash/recovery churn, full restarts, and an unstable
// process.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>

#include "common/mux.h"
#include "consensus/experiment.h"
#include "consensus/log_consensus.h"
#include "net/topology.h"
#include "omega/cr_omega.h"
#include "rsm/kv_core.h"
#include "sim/nemesis.h"
#include "sim/simulator.h"
#include "testing_util.h"

namespace lls {
namespace {

using testing::DurableFakeRuntime;

/// Storage writes and bytes, summed over a cluster.
struct WriteTally {
  std::uint64_t writes = 0;
  std::uint64_t bytes = 0;
};

/// Forwards to a process's runtime and storage, tallying storage writes.
class TalliedRuntime final : public Runtime, public StableStorage {
 public:
  TalliedRuntime(Runtime& base, WriteTally& tally)
      : base_(base), tally_(tally) {}

  [[nodiscard]] ProcessId id() const override { return base_.id(); }
  [[nodiscard]] int n() const override { return base_.n(); }
  [[nodiscard]] TimePoint now() const override { return base_.now(); }
  void send(ProcessId dst, MessageType type, BytesView payload) override {
    base_.send(dst, type, payload);
  }
  TimerId set_timer(Duration delay) override { return base_.set_timer(delay); }
  void cancel_timer(TimerId timer) override { base_.cancel_timer(timer); }
  Rng& rng() override { return base_.rng(); }
  [[nodiscard]] StableStorage* storage() override { return this; }
  [[nodiscard]] obs::Plane& obs() override { return base_.obs(); }
  [[nodiscard]] BufferPool& pool() override { return base_.pool(); }

  void write(const std::string& key, BytesView value) override {
    ++tally_.writes;
    tally_.bytes += value.size();
    base_.storage()->write(key, value);
  }
  [[nodiscard]] std::optional<Bytes> read(const std::string& key) override {
    return base_.storage()->read(key);
  }

 private:
  Runtime& base_;
  WriteTally& tally_;
};

/// Crash-recovery node: CrOmegaStable (leader oracle for the model) +
/// durable LogConsensus, composed under a mux. With a tally, every storage
/// write of the node is counted into it.
class CrNode final : public Actor {
 public:
  explicit CrNode(WriteTally* tally = nullptr)
      : tally_(tally),
        omega_(CrOmegaConfig{}),
        consensus_(durable_config(), &omega_) {
    mux_.add_child(omega_, 0x0100, 0x01ff);
    mux_.add_child(consensus_, 0x0200, 0x02ff);
  }

  static LogConsensusConfig durable_config() {
    LogConsensusConfig c;
    c.durable = true;
    return c;
  }

  void on_start(Runtime& rt) override {
    if (tally_ != nullptr) tallied_.emplace(rt, *tally_);
    mux_.on_start(view(rt));
  }
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override {
    mux_.on_message(view(rt), src, type, payload);
  }
  void on_timer(Runtime& rt, TimerId timer) override {
    mux_.on_timer(view(rt), timer);
  }

  CrOmegaStable& omega() { return omega_; }
  LogConsensus& consensus() { return consensus_; }

 private:
  Runtime& view(Runtime& rt) { return tallied_ ? *tallied_ : rt; }

  WriteTally* tally_;
  std::optional<TalliedRuntime> tallied_;
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

TEST(DurableAcceptor, AcceptThenDecideRestoresWithNoDecidedPair) {
  // The journal holds accept 0, accept 1, decide 0 and a retransmitted
  // accept of 0; replay runs the same mutators, so the restored acceptor
  // holds only the undecided pair, as the live one does.
  NullOmega omega;
  DurableFakeRuntime rt(/*id=*/2, /*n=*/3);
  Bytes live;
  {
    LogConsensus log(CrNode::durable_config(), &omega);
    log.on_start(rt);
    log.on_message(rt, 0, msg_type::kAccept, AcceptMsg{3, 0, 0, val(7)}.encode());
    log.on_message(rt, 0, msg_type::kAccept, AcceptMsg{3, 1, 0, val(8)}.encode());
    log.on_message(rt, 0, msg_type::kDecide, DecideMsg{0, val(7)}.encode());
    log.on_message(rt, 0, msg_type::kAccept, AcceptMsg{3, 0, 0, val(7)}.encode());
    live = log.log_state().encode();
  }
  LogConsensus recovered(CrNode::durable_config(), &omega);
  recovered.on_start(rt);
  EXPECT_EQ(recovered.log_state().encode(), live);
  EXPECT_EQ(recovered.decision(0), val(7));
  EXPECT_EQ(recovered.acceptor().accepted(0), nullptr);
  ASSERT_EQ(recovered.acceptor().all_accepted().size(), 1u);
  EXPECT_EQ(recovered.acceptor().accepted(1)->value, val(8));
}

/// Runs one durable log through a promise, a decision, a compaction (the
/// checkpoint) and a second promise (a journal record after it).
void promise_decide_compact_promise(Runtime& rt, const LogConsensusConfig& c,
                                    Round first, Round second) {
  NullOmega omega;
  LogConsensus log(c, &omega);
  log.on_start(rt);
  log.on_message(rt, 0, msg_type::kPrepare, PrepareMsg{first, 0}.encode());
  log.on_message(rt, 0, msg_type::kDecide, DecideMsg{0, val(1)}.encode());
  ASSERT_EQ(log.compact(1), 1u);
  log.on_message(rt, 0, msg_type::kPrepare, PrepareMsg{second, 1}.encode());
}

TEST(DurableAcceptor, EachGroupPersistsUnderItsOwnKey) {
  // The only log of a process keeps the historical key prefix; a log that
  // is group g of a multi-group replica persists under keys tagged g + 1,
  // so co-located durable logs never overwrite each other. Alone, each
  // group writes its own key set (checkpoint + journal slots); sharing one
  // storage, the two write the sum of those counts, so no key is shared.
  NullOmega omega;
  LogConsensusConfig grouped = CrNode::durable_config();
  grouped.shard = 1;
  DurableFakeRuntime only_rt(/*id=*/2, /*n=*/3);
  DurableFakeRuntime group_rt(/*id=*/2, /*n=*/3);
  DurableFakeRuntime shared(/*id=*/2, /*n=*/3);
  promise_decide_compact_promise(only_rt, CrNode::durable_config(), 9, 12);
  promise_decide_compact_promise(group_rt, grouped, 6, 15);
  promise_decide_compact_promise(shared, CrNode::durable_config(), 9, 12);
  promise_decide_compact_promise(shared, grouped, 6, 15);
  EXPECT_GE(only_rt.storage_.keys(), 2u);
  EXPECT_EQ(shared.storage_.keys(),
            only_rt.storage_.keys() + group_rt.storage_.keys());
  EXPECT_TRUE(shared.storage_.read("log_consensus/state").has_value());
  EXPECT_TRUE(shared.storage_.read("log_consensus/state/2").has_value());
  // Each group restores its own promise from the shared storage.
  LogConsensus only(CrNode::durable_config(), &omega);
  LogConsensus group1(grouped, &omega);
  only.on_start(shared);
  group1.on_start(shared);
  EXPECT_EQ(only.acceptor().promised(), 12);
  EXPECT_EQ(group1.acceptor().promised(), 15);
}

// --- unit: the journal ring and its checkpoint -------------------------------

using HookedRuntime = testing::BasicDurableFakeRuntime<testing::HookedStorage>;

/// The LogState a fresh engine restores from a copy of `storage`.
Bytes restored_state(const InMemoryStableStorage& storage) {
  NullOmega omega;
  DurableFakeRuntime fresh(/*id=*/0, /*n=*/3);
  fresh.storage_ = storage;
  LogConsensus recovered(CrNode::durable_config(), &omega);
  recovered.on_start(fresh);
  return recovered.log_state().encode();
}

/// p1 acks every ACCEPT p0 has sent it since the runtime's log was last
/// cleared (each ack completes a majority of two at n = 3).
void p1_acks_accepts(HookedRuntime& rt, LogConsensus& log) {
  const auto sent = rt.inner_.sent();
  rt.inner_.clear_sent();
  for (const auto& s : sent) {
    if (s.dst != 1 || s.type != msg_type::kAccept) continue;
    const auto accept = AcceptMsg::decode(s.payload);
    log.on_message(rt, 1, msg_type::kAccepted,
                   AcceptedMsg{accept.round, accept.instance, 0}.encode());
  }
}

Bytes numbered(std::uint64_t k) {
  Bytes v(8);
  for (std::size_t b = 0; b < 8; ++b) {
    v[b] = static_cast<std::byte>((k >> (8 * b)) & 0xff);
  }
  return v;
}

TEST(DurableJournal, EveryPersistRestoresTheLiveStateAcrossRingWraps) {
  // p0 leads (its own promises and self-accepts are journaled), p1 and p2
  // compete with prepares and accepts, decisions arrive with holes and as
  // duplicates, and compaction runs only in the second half, so the ring
  // wraps once with no checkpoint (a forced one) and again with them.
  // After every storage write, a fresh engine restored from a copy of the
  // storage must hold exactly the live LogState.
  NullOmega omega;
  HookedRuntime rt(/*id=*/0, /*n=*/3);
  LogConsensus log(CrNode::durable_config(), &omega);
  std::uint64_t writes = 0;
  bool forced_checkpoint = false;  // one written before any compaction
  rt.storage_.after_write = [&] {
    ++writes;
    ASSERT_EQ(restored_state(rt.storage_.data), log.log_state().encode())
        << "after write " << writes;
    forced_checkpoint |= log.compacted_upto() == 0 &&
                         rt.storage_.data.read("log_consensus/state");
  };
  log.on_start(rt);

  std::mt19937_64 rng(7);
  std::uint64_t next_value = 1;
  Round peer_round = kNoRound;
  const std::uint64_t target = 2 * LogConsensus::kJournalSlots + 256;
  for (int step = 0; writes < target && step < 100000 &&
                     !::testing::Test::HasFatalFailure();
       ++step) {
    rt.inner_.clear_sent();
    const bool compacting = writes > LogConsensus::kJournalSlots + 64;
    const Instance frontier = log.first_unknown();
    switch (rng() % 8) {
      case 0:  // tick: (re)prepare when p0 is not leading
        rt.fire_next_timer(log);
        break;
      case 1:  // p1 promises p0's current round; p0 re-proposes merges
        log.on_message(rt, 1, msg_type::kPromise,
                       PromiseMsg{log.current_round(), {}, 0}.encode());
        p1_acks_accepts(rt, log);
        break;
      case 2:  // p0 leads a value through (self-accept, then decide)
        if (!log.is_leader_ready()) break;
        log.propose(numbered(next_value++));
        p1_acks_accepts(rt, log);
        break;
      case 3: {  // a peer campaigns: p0 promises and stands down
        const auto peer = static_cast<ProcessId>(1 + rng() % 2);
        peer_round = next_ballot(
            peer, 3, std::max(log.acceptor().promised(), log.current_round()));
        log.on_message(rt, peer, msg_type::kPrepare,
                       PrepareMsg{peer_round, frontier}.encode());
        break;
      }
      case 4:  // the peer leader's ACCEPT, sometimes past a hole, and
               // sometimes committing the frontier (learned from p0's own
               // accepted pair when it carries this round)
        if (peer_round != log.acceptor().promised()) break;
        log.on_message(rt, peer_round % 3, msg_type::kAccept,
                       AcceptMsg{peer_round, frontier + rng() % 3,
                                 frontier + rng() % 2, numbered(next_value++)}
                           .encode());
        break;
      case 5: {  // a decision, sometimes past a hole, or a duplicate
        const Instance i = frontier + rng() % 3;
        Bytes v = log.decision(i).value_or(numbered(next_value++));
        log.on_message(rt, 1, msg_type::kDecide, DecideMsg{i, v}.encode());
        if (i > 0 && log.decision(i - 1).has_value()) {
          log.on_message(rt, 2, msg_type::kDecide,
                         DecideMsg{i - 1, *log.decision(i - 1)}.encode());
        }
        break;
      }
      case 6:
        if (compacting && rng() % 4 == 0) log.compact(frontier);
        break;
      default:
        rt.inner_.advance(kMillisecond);
        break;
    }
  }
  EXPECT_GE(writes, target);
  EXPECT_TRUE(forced_checkpoint);
  EXPECT_GT(log.compacted_upto(), 0u);
}

TEST(DurableJournal, TornOrStaleTailEndsTheReplay) {
  // K accepts fill the ring (records 0 to K-1); the next persist finds slot
  // 0 uncovered and checkpoints instead; five more are records K to K+4 in
  // slots 0-4. Slot 5 still holds record 5, a stale record of the previous
  // lap, so the journal ends there.
  constexpr std::uint64_t kSlots = LogConsensus::kJournalSlots;
  const std::string slot5 = "log_consensus/state/journal/5";
  NullOmega omega;
  DurableFakeRuntime rt(/*id=*/2, /*n=*/3);
  LogConsensus log(CrNode::durable_config(), &omega);
  log.on_start(rt);
  for (Instance i = 0; i < kSlots + 6; ++i) {
    log.on_message(rt, 0, msg_type::kAccept,
                   AcceptMsg{3, i, 0, numbered(i)}.encode());
  }
  ASSERT_EQ(LogCheckpoint::decode(*rt.storage_.read("log_consensus/state"))
                .next_seq,
            kSlots);
  InMemoryStableStorage before = rt.storage_;
  const Bytes state_before = log.log_state().encode();
  const Bytes stale = *before.read(slot5);
  ASSERT_EQ(LogRecord::decode(stale).seq, 5u);
  log.on_message(rt, 0, msg_type::kDecide, DecideMsg{0, numbered(0)}.encode());
  const Bytes record = *rt.storage_.read(slot5);
  ASSERT_EQ(LogRecord::decode(record).seq, kSlots + 5);
  EXPECT_EQ(restored_state(rt.storage_), log.log_state().encode());

  const auto restart_with_slot5 = [&](const Bytes& contents) {
    DurableFakeRuntime crashed(/*id=*/2, /*n=*/3);
    crashed.storage_ = before;
    crashed.storage_.write(slot5, contents);
    LogConsensus recovered(CrNode::durable_config(), &omega);
    recovered.on_start(crashed);
    EXPECT_EQ(recovered.log_state().encode(), state_before);
    // The next persist takes over slot 5, and a restart replays it.
    recovered.on_message(crashed, 0, msg_type::kPrepare,
                         PrepareMsg{6, 0}.encode());
    EXPECT_EQ(LogRecord::decode(*crashed.storage_.read(slot5)).seq,
              kSlots + 5);
    EXPECT_EQ(restored_state(crashed.storage_),
              recovered.log_state().encode());
    EXPECT_EQ(recovered.acceptor().promised(), 6);
  };
  // A stale record from the previous lap.
  restart_with_slot5(stale);
  // A torn write: every proper prefix of the real record.
  for (std::size_t len = 0; len < record.size(); ++len) {
    SCOPED_TRACE(len);
    restart_with_slot5(
        Bytes(record.begin(), record.begin() + static_cast<std::ptrdiff_t>(len)));
  }
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

// --- integration: the cost of a durable write ----------------------------

constexpr std::size_t kCostValueSize = 100;

/// Storage bytes written per decision by a durable n = 3 cluster that
/// decides 600 distinct 100-byte values and compacts every replica to the
/// cluster-wide decided minimum every `period` decisions.
double bytes_per_decision(Instance period) {
  constexpr int kValues = 600;
  WriteTally tally;
  SimConfig config;
  config.n = 3;
  config.seed = 31;
  Simulator sim(config, make_all_timely({500, 2 * kMillisecond}));
  for (ProcessId p = 0; p < 3; ++p) {
    sim.set_actor_factory(p, [&tally] { return std::make_unique<CrNode>(&tally); });
  }
  for (int k = 0; k < kValues; ++k) {
    sim.schedule(1 * kSecond + k * 5 * kMillisecond, [&sim, k] {
      Bytes v = numbered(static_cast<std::uint64_t>(k));
      v.resize(kCostValueSize, std::byte{0x5a});
      sim.actor_as<CrNode>(0).consensus().propose(std::move(v));
    });
  }
  const auto decided = [&sim] {
    Instance floor = sim.actor_as<CrNode>(0).consensus().first_unknown();
    for (ProcessId p = 1; p < 3; ++p) {
      floor = std::min(floor, sim.actor_as<CrNode>(p).consensus().first_unknown());
    }
    return floor;
  };
  Instance compacted = 0;
  sim.schedule_every(1 * kSecond, 10 * kMillisecond, [&] {
    const Instance floor = decided();
    if (floor >= compacted + period) {
      for (ProcessId p = 0; p < 3; ++p) {
        sim.actor_as<CrNode>(p).consensus().compact(floor);
      }
      compacted = floor;
    }
    return true;
  });
  sim.start();
  sim.run_until(1 * kSecond + kValues * 5 * kMillisecond + 2 * kSecond);
  EXPECT_GE(decided(), static_cast<Instance>(kValues));
  EXPECT_GT(compacted, static_cast<Instance>(kValues) / 2);
  return static_cast<double>(tally.bytes) / static_cast<double>(decided());
}

TEST(DurableCost, BytesPerDecisionDoNotGrowWithTheCompactionPeriod) {
  // The cost of persisting one write must not grow with the log: doubling
  // the compaction period (so the log grows twice as long between
  // compactions) leaves the bytes written per decision flat, and they stay
  // a small multiple of the value size. Each decision's value is written
  // six times across the cluster (each replica's accept and decide), plus
  // each record's framing and the compaction checkpoints (about 8.6x).
  const double p = bytes_per_decision(50);
  const double p2 = bytes_per_decision(100);
  EXPECT_LT(std::max(p, p2), 1.5 * std::min(p, p2)) << p << " vs " << p2;
  EXPECT_LT(std::max(p, p2), 12.0 * kCostValueSize) << p << " vs " << p2;
}

TEST(DurableCost, ForcedCheckpointCarriesOnlyUndecidedPairs) {
  // With no compaction, a follower that accepts each 100-byte value and
  // learns it one instance later writes two records per instance; the
  // write after the ring fills (record kJournalSlots) is a checkpoint of
  // the whole LogState. Its acceptor holds only the one undecided pair, so
  // it costs about one value per decided entry (one decided copy plus one
  // acceptor copy would be about two).
  NullOmega omega;
  DurableFakeRuntime rt(/*id=*/2, /*n=*/3);
  LogConsensus log(CrNode::durable_config(), &omega);
  log.on_start(rt);
  const auto value = [](Instance i) {
    Bytes v = numbered(i);
    v.resize(kCostValueSize, std::byte{0x5a});
    return v;
  };
  for (Instance i = 0; !rt.storage_.read("log_consensus/state"); ++i) {
    ASSERT_LT(i, LogConsensus::kJournalSlots);
    log.on_message(rt, 0, msg_type::kAccept,
                   AcceptMsg{3, i, 0, value(i)}.encode());
    if (i > 0) {
      log.on_message(rt, 0, msg_type::kDecide,
                     DecideMsg{i - 1, value(i - 1)}.encode());
    }
  }
  const Bytes stored = *rt.storage_.read("log_consensus/state");
  const LogCheckpoint cp = LogCheckpoint::decode(stored);
  EXPECT_EQ(cp.next_seq, LogConsensus::kJournalSlots);
  const LogState state = LogState::decode(cp.state.view());
  Instance first_unknown = state.base;
  while (state.decided(first_unknown)) ++first_unknown;
  ASSERT_GT(first_unknown, LogConsensus::kJournalSlots / 4);
  const auto& pairs = state.acceptor.all_accepted();  // instance order
  ASSERT_FALSE(pairs.empty());
  EXPECT_GE(pairs.front().instance, first_unknown)
      << "the checkpoint stores pairs of decided instances";
  const double per_entry = static_cast<double>(stored.size()) /
                           static_cast<double>(first_unknown);
  EXPECT_LT(per_entry, 1.2 * kCostValueSize) << per_entry;
}

/// Bytes of the dedup section of the KV snapshot a durable core writes
/// when it compacts after applying `commands` from one client session
/// that, like a window-1 client, acks each seq before sending the next.
std::size_t snapshot_dedup_bytes(std::uint64_t commands) {
  constexpr ProcessId kClient = 5;
  NullOmega omega;
  DurableFakeRuntime rt(/*id=*/1, /*n=*/3);
  KvCoreOptions opts;
  opts.omega = &omega;
  opts.consensus.durable = true;
  opts.replica.cluster_n = 3;
  KvCore core(opts);
  core.on_start(rt);
  for (std::uint64_t seq = 1; seq <= commands; ++seq) {
    CommandBatch batch;
    Command& cmd = batch.commands.emplace_back();
    cmd.origin = kClient;
    cmd.seq = seq;
    cmd.ack_upto = seq - 1;
    cmd.op = KvOp::kAppend;
    cmd.key = "k";
    cmd.value = "x";
    core.on_message(rt, 0, msg_type::kDecide,
                    DecideMsg{seq - 1, batch.encode()}.encode());
  }
  EXPECT_EQ(core.applied_count(), commands);
  core.compact_applied();
  const auto blob = rt.storage_.read("kv_core/snapshot/0");
  if (!blob.has_value()) {
    ADD_FAILURE() << "no snapshot written";
    return 0;
  }
  const KvSnapshot snap = KvSnapshot::decode(*blob);
  EXPECT_EQ(snap.dedup.size(), 1u);
  std::size_t bytes = 0;
  for (const SnapshotDedup& d : snap.dedup) bytes += wire::measure(d);
  return bytes;
}

TEST(DurableCost, SnapshotDedupDoesNotGrowWithTheSessionHistory) {
  // A session's dedup state is its watermark plus the seqs applied above
  // it, so the snapshot's dedup section is the same after 1k commands as
  // after 8k (one u64 per command ever applied would be 8 KB and 64 KB).
  const std::size_t small = snapshot_dedup_bytes(1000);
  const std::size_t large = snapshot_dedup_bytes(8000);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace lls
