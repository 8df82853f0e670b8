// White-box tests of the LogConsensus protocol state machine, driven
// message-by-message through a FakeRuntime with a scripted Omega oracle.
// These pin down the wire-level contract: ballot arithmetic, Phase 1
// merging, no-op gap filling, nack-triggered abdication, decide
// retransmission and the commit_upto piggyback.
#include <gtest/gtest.h>

#include "consensus/log_consensus.h"
#include "testing_util.h"

namespace lls {
namespace {

using testing::FakeRuntime;

/// Omega stub with an externally scripted output.
class FixedOmega final : public OmegaActor {
 public:
  explicit FixedOmega(ProcessId leader) : leader_(leader) {}
  void on_start(Runtime&) override {}
  void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
  void on_timer(Runtime&, TimerId) override {}
  [[nodiscard]] ProcessId leader() const override { return leader_; }
  void set(ProcessId leader) { leader_ = leader; }

 private:
  ProcessId leader_;
};

Bytes val(std::uint8_t x) { return Bytes{std::byte{x}}; }

struct Fixture {
  FixedOmega omega;
  LogConsensus consensus;
  FakeRuntime rt;

  explicit Fixture(ProcessId self, int n, ProcessId leader,
                   LogConsensusConfig config = {})
      : omega(leader), consensus(config, &omega), rt(self, n) {
    consensus.on_start(rt);
  }

  /// Fires the single pending tick timer.
  void tick() { ASSERT_TRUE(rt.fire_next_timer(consensus)); }

  void deliver(ProcessId src, MessageType type, const Bytes& payload) {
    consensus.on_message(rt, src, type, payload);
  }

  /// Last message of `type` sent to `dst`, decoded by the caller.
  [[nodiscard]] const Bytes* last_sent(ProcessId dst, MessageType type) const {
    const Bytes* found = nullptr;
    for (const auto& s : rt.sent()) {
      if (s.dst == dst && s.type == type) found = &s.payload;
    }
    return found;
  }
};

TEST(LogConsensusUnit, LeaderPreparesWithOwnBallot) {
  Fixture f(/*self=*/1, /*n=*/3, /*leader=*/1);
  f.tick();
  const Bytes* prep = f.last_sent(0, msg_type::kPrepare);
  ASSERT_NE(prep, nullptr);
  auto msg = PrepareMsg::decode(*prep);
  EXPECT_EQ(msg.round % 3, 1);  // ballot owned by process 1
  EXPECT_EQ(msg.from, 0u);
  EXPECT_NE(f.last_sent(2, msg_type::kPrepare), nullptr);
  EXPECT_FALSE(f.consensus.is_leader_ready());
}

TEST(LogConsensusUnit, NonLeaderForwardsProposals) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  f.consensus.propose(val(9));
  const Bytes* fwd = f.last_sent(0, msg_type::kForward);
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(ForwardMsg::decode(*fwd).value, val(9));
  // And it re-forwards on ticks until the value is decided.
  f.rt.clear_sent();
  f.tick();
  EXPECT_NE(f.last_sent(0, msg_type::kForward), nullptr);
}

TEST(LogConsensusUnit, MajorityPromisesMakeLeaderReady) {
  Fixture f(/*self=*/0, /*n=*/5, /*leader=*/0);
  f.tick();  // sends PREPARE(round 0)
  EXPECT_FALSE(f.consensus.is_leader_ready());
  Round r = f.consensus.current_round();
  // Two promises + self = majority of 5.
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  EXPECT_FALSE(f.consensus.is_leader_ready());
  f.deliver(2, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  EXPECT_TRUE(f.consensus.is_leader_ready());
}

TEST(LogConsensusUnit, ReadyLeaderDrivesProposalToDecision) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());

  f.rt.clear_sent();
  f.consensus.propose(val(7));  // eager dispatch: ACCEPTs go out now
  const Bytes* acc = f.last_sent(1, msg_type::kAccept);
  ASSERT_NE(acc, nullptr);
  auto msg = AcceptMsg::decode(*acc);
  EXPECT_EQ(msg.round, r);
  EXPECT_EQ(msg.instance, 0u);
  EXPECT_EQ(msg.value, val(7));

  // One ACCEPTED completes the majority (self counts).
  f.deliver(1, msg_type::kAccepted, AcceptedMsg{r, 0}.encode());
  ASSERT_TRUE(f.consensus.decision(0).has_value());
  EXPECT_EQ(*f.consensus.decision(0), val(7));
  // Decide broadcast with ack tracking.
  EXPECT_NE(f.last_sent(1, msg_type::kDecide), nullptr);
  EXPECT_NE(f.last_sent(2, msg_type::kDecide), nullptr);
}

TEST(LogConsensusUnit, DecideRetransmittedUntilAcked) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  f.consensus.propose(val(7));
  f.deliver(1, msg_type::kAccepted, AcceptedMsg{r, 0}.encode());
  ASSERT_TRUE(f.consensus.decision(0).has_value());

  // p1 acks; p2 does not. The next tick retransmits only to p2.
  f.deliver(1, msg_type::kDecideAck, DecideAckMsg{0}.encode());
  f.rt.clear_sent();
  f.tick();
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kDecide), 0);
  EXPECT_EQ(f.rt.count_sent(2, msg_type::kDecide), 1);

  f.deliver(2, msg_type::kDecideAck, DecideAckMsg{0}.encode());
  f.rt.clear_sent();
  f.tick();
  EXPECT_EQ(f.rt.count_sent(2, msg_type::kDecide), 0);  // quiescent
}

TEST(LogConsensusUnit, AcceptorGrantsAndReportsState) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  // Accept a value at round 0 (ballot of p0) for instance 1.
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 1, 0, val(5)}.encode());
  const Bytes* ack = f.last_sent(0, msg_type::kAccepted);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(AcceptedMsg::decode(*ack).instance, 1u);

  // A later PREPARE from p1 must report the accepted pair.
  f.rt.clear_sent();
  f.deliver(1, msg_type::kPrepare, PrepareMsg{1, 0}.encode());
  const Bytes* prom = f.last_sent(1, msg_type::kPromise);
  ASSERT_NE(prom, nullptr);
  auto msg = PromiseMsg::decode(*prom);
  ASSERT_EQ(msg.entries.size(), 1u);
  EXPECT_EQ(msg.entries[0].instance, 1u);
  EXPECT_EQ(msg.entries[0].accepted_round, 0);
  EXPECT_FALSE(msg.entries[0].decided);
  EXPECT_EQ(msg.entries[0].value, val(5));
}

TEST(LogConsensusUnit, StalePrepareGetsNack) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  f.deliver(1, msg_type::kPrepare, PrepareMsg{7, 0}.encode());
  f.rt.clear_sent();
  f.deliver(0, msg_type::kPrepare, PrepareMsg{3, 0}.encode());  // below 7
  const Bytes* nack = f.last_sent(0, msg_type::kNack);
  ASSERT_NE(nack, nullptr);
  auto msg = NackMsg::decode(*nack);
  EXPECT_EQ(msg.rejected_round, 3);
  EXPECT_EQ(msg.promised_round, 7);
}

TEST(LogConsensusUnit, NackMakesLeaderAbdicateAndRetryHigher) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  Round first = f.consensus.current_round();
  // A NACK citing a higher promise forces abdication...
  f.deliver(2, msg_type::kNack, NackMsg{first, first + 1}.encode());
  EXPECT_FALSE(f.consensus.is_leader_ready());
  // ...and the next tick re-prepares above the cited round.
  f.rt.clear_sent();
  f.tick();
  const Bytes* prep = f.last_sent(1, msg_type::kPrepare);
  ASSERT_NE(prep, nullptr);
  EXPECT_GT(PrepareMsg::decode(*prep).round, first + 1);
}

TEST(LogConsensusUnit, PhaseOneRecoversAcceptedValue) {
  // The new leader must re-propose a value some acceptor already accepted,
  // not its own pending value, for that instance.
  Fixture f(/*self=*/1, /*n=*/3, /*leader=*/1);
  f.consensus.propose(val(9));
  f.tick();  // PREPARE
  Round r = f.consensus.current_round();
  PromiseMsg promise;
  promise.round = r;
  promise.entries.push_back(PromiseEntry{0, /*accepted_round=*/0, false, val(5)});
  f.rt.clear_sent();
  f.deliver(0, msg_type::kPromise, promise.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());

  // Instance 0 must carry the recovered value 5; the local proposal 9 goes
  // to instance 1.
  const Bytes* acc0 = nullptr;
  const Bytes* acc1 = nullptr;
  for (const auto& s : f.rt.sent()) {
    if (s.type != msg_type::kAccept || s.dst != 0) continue;
    auto m = AcceptMsg::decode(s.payload);
    if (m.instance == 0) acc0 = &s.payload;
    if (m.instance == 1) acc1 = &s.payload;
  }
  ASSERT_NE(acc0, nullptr);
  ASSERT_NE(acc1, nullptr);
  EXPECT_EQ(AcceptMsg::decode(*acc0).value, val(5));
  EXPECT_EQ(AcceptMsg::decode(*acc1).value, val(9));
}

TEST(LogConsensusUnit, PhaseOneFillsGapsWithNoops) {
  Fixture f(/*self=*/1, /*n=*/3, /*leader=*/1);
  f.tick();
  Round r = f.consensus.current_round();
  // Acceptor reports an accepted value only at instance 2: instances 0, 1
  // are holes the new leader must fill with no-ops.
  PromiseMsg promise;
  promise.round = r;
  promise.entries.push_back(PromiseEntry{2, 0, false, val(5)});
  f.rt.clear_sent();
  f.deliver(0, msg_type::kPromise, promise.encode());

  int noops = 0;
  for (const auto& s : f.rt.sent()) {
    if (s.type != msg_type::kAccept || s.dst != 0) continue;
    auto m = AcceptMsg::decode(s.payload);
    if (m.instance < 2) {
      EXPECT_TRUE(m.value.empty());
      ++noops;
    }
  }
  EXPECT_EQ(noops, 2);
}

TEST(LogConsensusUnit, DecidedEntryInPromiseIsLearnedDirectly) {
  Fixture f(/*self=*/1, /*n=*/3, /*leader=*/1);
  f.tick();
  Round r = f.consensus.current_round();
  PromiseMsg promise;
  promise.round = r;
  promise.entries.push_back(PromiseEntry{0, kNoRound, true, val(8)});
  f.deliver(0, msg_type::kPromise, promise.encode());
  ASSERT_TRUE(f.consensus.decision(0).has_value());
  EXPECT_EQ(*f.consensus.decision(0), val(8));
}

TEST(LogConsensusUnit, CommitUptoPiggybackDecidesPipelinedInstances) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  // Accept instance 0 at round 0, then an ACCEPT for instance 1 carrying
  // commit_upto = 1 (same round): instance 0 becomes decided locally
  // without an explicit DECIDE.
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 0, 0, val(1)}.encode());
  EXPECT_FALSE(f.consensus.decision(0).has_value());
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 1, 1, val(2)}.encode());
  ASSERT_TRUE(f.consensus.decision(0).has_value());
  EXPECT_EQ(*f.consensus.decision(0), val(1));
}

TEST(LogConsensusUnit, CommitUptoIgnoresOtherRoundAcceptances) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  // Instance 0 accepted at round 0; a *different* leader (round 1, ballot
  // of p1) claims commit_upto=1 — our round-0 value must NOT be committed
  // off that claim.
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 0, 0, val(1)}.encode());
  f.deliver(1, msg_type::kAccept, AcceptMsg{1, 1, 1, val(2)}.encode());
  EXPECT_FALSE(f.consensus.decision(0).has_value());
}

TEST(LogConsensusUnit, DecisionListenerFiresInInstanceOrder) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  std::vector<Instance> order;
  obs::Subscription sub = f.rt.obs().bus().subscribe(
      obs::mask_of(obs::EventType::kDecide),
      [&](const obs::Event& e) { order.push_back(e.a); });
  f.deliver(0, msg_type::kDecide, DecideMsg{1, val(2)}.encode());
  EXPECT_TRUE(order.empty());  // instance 0 unknown: hold the line
  f.deliver(0, msg_type::kDecide, DecideMsg{0, val(1)}.encode());
  EXPECT_EQ(order, (std::vector<Instance>{0, 1}));
  EXPECT_EQ(f.consensus.first_unknown(), 2u);
}

TEST(LogConsensusUnit, DuplicateDecideIsIdempotentAndAcked) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  int notifications = 0;
  obs::Subscription sub = f.rt.obs().bus().subscribe(
      obs::mask_of(obs::EventType::kDecide),
      [&](const obs::Event&) { ++notifications; });
  f.deliver(0, msg_type::kDecide, DecideMsg{0, val(1)}.encode());
  f.deliver(0, msg_type::kDecide, DecideMsg{0, val(1)}.encode());
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(f.rt.count_sent(0, msg_type::kDecideAck), 2);  // always ack
}

TEST(LogConsensusUnit, ConflictingDecideThrowsAgreementTripwire) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  f.deliver(0, msg_type::kDecide, DecideMsg{0, val(1)}.encode());
  EXPECT_THROW(
      f.deliver(0, msg_type::kDecide, DecideMsg{0, val(2)}.encode()),
      std::logic_error);
}

TEST(LogConsensusUnit, CompactedAcceptorRefusesLaggardPrepare) {
  // Regression for an agreement violation found by the topology soak
  // (churn + compaction): an acceptor that compacted past a candidate's
  // log frontier can no longer report the decided values the candidate is
  // missing — neither the decided entry nor the accepted pair survives
  // below log_base_. Promising anyway lets the candidate treat those slots
  // as holes and no-op-fill instances that were in fact decided. The
  // acceptor must stay silent until the candidate has caught up.
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  f.deliver(0, msg_type::kDecide, DecideMsg{0, val(1)}.encode());
  f.deliver(0, msg_type::kDecide, DecideMsg{1, val(2)}.encode());
  f.deliver(0, msg_type::kDecide, DecideMsg{2, val(3)}.encode());
  ASSERT_EQ(f.consensus.compact(3), 3u);

  f.rt.clear_sent();
  f.deliver(1, msg_type::kPrepare, PrepareMsg{1, /*from=*/1}.encode());
  EXPECT_EQ(f.last_sent(1, msg_type::kPromise), nullptr);
  EXPECT_EQ(f.last_sent(1, msg_type::kNack), nullptr);

  // A caught-up candidate (frontier at the watermark) is served normally.
  f.deliver(1, msg_type::kPrepare, PrepareMsg{1, /*from=*/3}.encode());
  EXPECT_NE(f.last_sent(1, msg_type::kPromise), nullptr);
}

TEST(LogConsensusUnit, LeaderChangeAbandonsProposerRole) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());
  f.consensus.propose(val(4));
  EXPECT_EQ(f.consensus.pending_count(), 0u);  // in flight

  // Omega switches away; the next tick abdicates and forwards the
  // unfinished value to the new leader.
  f.omega.set(2);
  f.rt.clear_sent();
  f.tick();
  EXPECT_FALSE(f.consensus.is_leader_ready());
  const Bytes* fwd = f.last_sent(2, msg_type::kForward);
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(ForwardMsg::decode(*fwd).value, val(4));
}

TEST(LogConsensusUnit, StaleReadyLeaderNeverAssignsADecidedInstance) {
  // Regression for a liveness hole found by the randomized kv campaign
  // (seed 163): a leader that became ready with next_free_ == i, then
  // LEARNED instance i from a competing leader's decide, would assign its
  // next proposal to the already-decided slot i. learn(i) had already run,
  // so nothing ever displaced the value back to pending_, and abdication
  // dropped it as "decided" — the submission was silently lost.
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());

  // A competing leader decided instance 0 behind our back.
  f.deliver(2, msg_type::kDecide, DecideMsg{0, val(6)}.encode());
  ASSERT_TRUE(f.consensus.decision(0).has_value());

  // Our proposal must land on a fresh instance, not the decided slot.
  f.rt.clear_sent();
  f.consensus.propose(val(9));
  const Bytes* acc = f.last_sent(1, msg_type::kAccept);
  ASSERT_NE(acc, nullptr);
  auto msg = AcceptMsg::decode(*acc);
  EXPECT_EQ(msg.instance, 1u);
  EXPECT_EQ(msg.value, val(9));

  // Losing leadership must hand the still-undecided value back to the
  // pending queue (and forward it to the new leader), not drop it.
  f.omega.set(2);
  f.rt.clear_sent();
  f.tick();
  EXPECT_FALSE(f.consensus.is_leader_ready());
  EXPECT_EQ(f.consensus.pending_count(), 1u);
  const Bytes* fwd = f.last_sent(2, msg_type::kForward);
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(ForwardMsg::decode(*fwd).value, val(9));
}

TEST(LogConsensusUnit, AbdicationRequeuesAValueDisplacedFromADecidedSlot) {
  // Belt-and-braces for the same hole: even if an in-flight entry somehow
  // sits on a slot decided with a different value at abdication time, the
  // value must be re-queued, not dropped.
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());
  f.consensus.propose(val(9));  // in flight at instance 0

  // A competing leader's decide for instance 0 arrives with another value:
  // the displaced value goes straight back to pending, and the decision
  // that freed its window slot re-proposes it at once, at instance 1.
  f.rt.clear_sent();
  f.deliver(2, msg_type::kDecide, DecideMsg{0, val(6)}.encode());
  EXPECT_EQ(f.consensus.pending_count(), 0u);
  const Bytes* acc = f.last_sent(1, msg_type::kAccept);
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(AcceptMsg::decode(*acc).instance, 1u);
  EXPECT_EQ(AcceptMsg::decode(*acc).value, val(9));

  // And a duplicate of that decide must not disturb the queue or the
  // re-proposal.
  f.rt.clear_sent();
  f.deliver(2, msg_type::kDecide, DecideMsg{0, val(6)}.encode());
  EXPECT_EQ(f.consensus.pending_count(), 0u);
  EXPECT_EQ(f.last_sent(1, msg_type::kAccept), nullptr);
  EXPECT_EQ(f.consensus.acceptor().accepted(1)->value, val(9));

  // Losing leadership hands it back to the queue.
  f.omega.set(2);
  f.tick();
  EXPECT_EQ(f.consensus.pending_count(), 1u);
}

TEST(LogConsensusUnit, ForwardDeduplicatesAgainstLogAndQueue) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/2);
  f.deliver(1, msg_type::kForward, ForwardMsg{val(6)}.encode());
  f.deliver(1, msg_type::kForward, ForwardMsg{val(6)}.encode());
  EXPECT_EQ(f.consensus.pending_count(), 1u);
  // Once decided, further forwards of the same value are dropped too.
  f.deliver(2, msg_type::kDecide, DecideMsg{0, val(6)}.encode());
  EXPECT_EQ(f.consensus.pending_count(), 0u);  // pruned by the decision
  f.deliver(1, msg_type::kForward, ForwardMsg{val(6)}.encode());
  EXPECT_EQ(f.consensus.pending_count(), 0u);
}

// --- the acceptor bound: a decided instance keeps no accepted pair --------

/// A value long enough that a copy and a moved buffer are told apart.
Bytes big(std::uint8_t x) { return Bytes(257, std::byte{x}); }

TEST(LogConsensusUnit, DecidedInstancesLeaveNoAcceptedPair) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 0, 0, big(1)}.encode());
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 1, 0, big(2)}.encode());
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 2, 0, big(3)}.encode());
  ASSERT_EQ(f.consensus.acceptor().all_accepted().size(), 3u);

  // Learned through commit_upto: the pair's own bytes become the entry.
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 3, 1, big(4)}.encode());
  EXPECT_EQ(f.consensus.decision(0), big(1));
  EXPECT_EQ(f.consensus.acceptor().accepted(0), nullptr);

  // Learned through DECIDE.
  f.deliver(0, msg_type::kDecide, DecideMsg{1, big(2)}.encode());
  EXPECT_EQ(f.consensus.decision(1), big(2));
  EXPECT_EQ(f.consensus.acceptor().accepted(1), nullptr);

  // Decided with another value than the pair's (a competing leader won
  // the slot): the pair goes too, and the log holds the decided value.
  f.deliver(1, msg_type::kDecide, DecideMsg{2, big(9)}.encode());
  EXPECT_EQ(f.consensus.decision(2), big(9));
  EXPECT_EQ(f.consensus.acceptor().accepted(2), nullptr);

  // The undecided pair survives, and Phase 1 still reports it.
  ASSERT_EQ(f.consensus.acceptor().all_accepted().size(), 1u);
  EXPECT_EQ(f.consensus.acceptor().accepted(3)->value, big(4));
  f.rt.clear_sent();
  f.deliver(1, msg_type::kPrepare, PrepareMsg{1, 3}.encode());
  const Bytes* prom = f.last_sent(1, msg_type::kPromise);
  ASSERT_NE(prom, nullptr);
  const auto promise = PromiseMsg::decode(*prom);
  ASSERT_EQ(promise.entries.size(), 1u);
  EXPECT_EQ(promise.entries[0].instance, 3u);
  EXPECT_FALSE(promise.entries[0].decided);
  EXPECT_EQ(promise.entries[0].value, big(4));
}

TEST(LogConsensusUnit, LeaderQuorumDecisionLeavesNoAcceptedPair) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  const Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());
  f.consensus.propose(big(7));
  f.consensus.propose(big(8));
  ASSERT_EQ(f.consensus.acceptor().all_accepted().size(), 2u);

  f.deliver(1, msg_type::kAccepted, AcceptedMsg{r, 0}.encode());
  EXPECT_EQ(f.consensus.decision(0), big(7));
  ASSERT_EQ(f.consensus.acceptor().all_accepted().size(), 1u);
  EXPECT_EQ(f.consensus.acceptor().accepted(1)->value, big(8));
  // The DECIDE carries the intact value.
  const Bytes* decide = f.last_sent(2, msg_type::kDecide);
  ASSERT_NE(decide, nullptr);
  EXPECT_EQ(DecideMsg::decode(*decide).value, big(7));
}

TEST(LogConsensusUnit, AcceptForADecidedInstanceIsAckedButLeavesNoPair) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 0, 0, big(1)}.encode());
  f.deliver(0, msg_type::kDecide, DecideMsg{0, big(1)}.encode());
  ASSERT_TRUE(f.consensus.acceptor().all_accepted().empty());

  // A retransmitted ACCEPT, here at a higher round, still raises the
  // promise and still gets its ACCEPTED, but leaves no pair.
  f.rt.clear_sent();
  f.deliver(0, msg_type::kAccept, AcceptMsg{3, 0, 0, big(1)}.encode());
  const Bytes* ack = f.last_sent(0, msg_type::kAccepted);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(AcceptedMsg::decode(*ack).instance, 0u);
  EXPECT_EQ(AcceptedMsg::decode(*ack).round, 3);
  EXPECT_EQ(f.consensus.acceptor().promised(), 3);
  EXPECT_TRUE(f.consensus.acceptor().all_accepted().empty());
  EXPECT_EQ(f.consensus.decision(0), big(1));

  // Below the promise it is refused as before.
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 0, 0, big(1)}.encode());
  EXPECT_NE(f.last_sent(0, msg_type::kNack), nullptr);
}

// --- the proposer's slots: members' votes only, one window --------------

/// Round of the leader's Phase 1: ticks, then takes promises from the
/// followers `from` (self counts too).
Round make_ready(Fixture& f, std::initializer_list<ProcessId> from) {
  f.tick();
  const Round r = f.consensus.current_round();
  for (ProcessId q : from) {
    f.deliver(q, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  }
  return r;
}

TEST(LogConsensusUnit, FramesFromOutsideTheClusterCountInNoQuorum) {
  // Process 7 is not a member of this 3-process cluster (a client's id,
  // say): its PROMISE, ACCEPTED and DECIDE must count for nothing.
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  const Round r = make_ready(f, {7});
  EXPECT_FALSE(f.consensus.is_leader_ready());
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());

  f.consensus.propose(val(5));
  f.deliver(7, msg_type::kAccepted, AcceptedMsg{r, 0}.encode());
  EXPECT_FALSE(f.consensus.decision(0).has_value());
  f.rt.clear_sent();
  f.deliver(7, msg_type::kDecide, DecideMsg{0, val(8)}.encode());
  EXPECT_FALSE(f.consensus.decision(0).has_value());
  EXPECT_TRUE(f.rt.sent().empty());

  // A member's vote completes the quorum.
  f.deliver(2, msg_type::kAccepted, AcceptedMsg{r, 0}.encode());
  EXPECT_EQ(f.consensus.decision(0), val(5));
}

TEST(LogConsensusUnit,
     HigherRoundAcceptOverAnInFlightInstanceRequeuesTheValue) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  const Round r = make_ready(f, {1});
  ASSERT_TRUE(f.consensus.is_leader_ready());
  f.consensus.propose(big(7));  // in flight at instance 0
  f.consensus.propose(big(9));  // and at instance 1
  ASSERT_EQ(f.consensus.pending_count(), 0u);

  // Process 1 took over and sends its own value for instance 0 at a
  // higher round: my pair is overwritten, and both my values are owed
  // again. The pair of instance 1 stays: it is durable Phase-1 state.
  f.omega.set(1);
  const Round higher = next_ballot(1, 3, r);
  f.rt.clear_sent();
  f.deliver(1, msg_type::kAccept, AcceptMsg{higher, 0, 0, big(8)}.encode());
  EXPECT_FALSE(f.consensus.is_leader_ready());
  EXPECT_NE(f.last_sent(1, msg_type::kAccepted), nullptr);
  EXPECT_EQ(f.consensus.acceptor().accepted(0)->value, big(8));
  EXPECT_EQ(f.consensus.acceptor().accepted(1)->value, big(9));
  EXPECT_EQ(f.consensus.pending_count(), 2u);

  // The next tick forwards them, intact, to the new leader.
  f.tick();
  std::vector<Bytes> forwarded;
  for (const auto& s : f.rt.sent()) {
    if (s.dst == 1 && s.type == msg_type::kForward) {
      forwarded.push_back(ForwardMsg::decode(s.payload).value.to_owned());
    }
  }
  EXPECT_EQ(forwarded, (std::vector<Bytes>{big(7), big(9)}));
}

/// The instances of the ACCEPTs sent to `dst`, in send order.
std::vector<Instance> accepts_to(const Fixture& f, ProcessId dst) {
  std::vector<Instance> out;
  for (const auto& s : f.rt.sent()) {
    if (s.dst == dst && s.type == msg_type::kAccept) {
      out.push_back(AcceptMsg::decode(s.payload).instance);
    }
  }
  return out;
}

TEST(LogConsensusUnit, WindowHoldsFreshValuesAndRefillsOnDecide) {
  LogConsensusConfig config;
  config.max_inflight = 2;
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0, config);
  const Round r = make_ready(f, {1});
  ASSERT_TRUE(f.consensus.is_leader_ready());

  f.rt.clear_sent();
  f.consensus.propose(val(1));
  f.consensus.propose(val(2));
  f.consensus.propose(val(3));
  EXPECT_EQ(accepts_to(f, 1), (std::vector<Instance>{0, 1}));
  EXPECT_EQ(f.consensus.pending_count(), 1u);

  // A decision frees a slot, and the held value goes out at once.
  f.rt.clear_sent();
  f.deliver(1, msg_type::kAccepted, AcceptedMsg{r, 0}.encode());
  EXPECT_EQ(f.consensus.decision(0), val(1));
  EXPECT_EQ(accepts_to(f, 1), (std::vector<Instance>{2}));
  EXPECT_EQ(AcceptMsg::decode(*f.last_sent(1, msg_type::kAccept)).value,
            val(3));
  EXPECT_EQ(f.consensus.pending_count(), 0u);

  // Values a promise quorum reports are owed at once, window or not: a
  // new leader with window 2 re-proposes all three, and only a fresh
  // value waits.
  Fixture g(/*self=*/1, /*n=*/3, /*leader=*/1, config);
  g.tick();
  PromiseMsg promise;
  promise.round = g.consensus.current_round();
  for (Instance i = 0; i < 3; ++i) {
    promise.entries.push_back(PromiseEntry{i, /*accepted_round=*/0, false,
                                           val(static_cast<std::uint8_t>(i))});
  }
  g.rt.clear_sent();
  g.deliver(0, msg_type::kPromise, promise.encode());
  ASSERT_TRUE(g.consensus.is_leader_ready());
  EXPECT_EQ(accepts_to(g, 2), (std::vector<Instance>{0, 1, 2}));
  g.consensus.propose(val(9));
  EXPECT_EQ(g.consensus.pending_count(), 1u);
  EXPECT_EQ(accepts_to(g, 2), (std::vector<Instance>{0, 1, 2}));
}

}  // namespace
}  // namespace lls
