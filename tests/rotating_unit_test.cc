// White-box tests of the rotating-coordinator baseline, driven
// message-by-message through a FakeRuntime: round structure, coordinator
// rotation, estimate locking, decided-echo behaviour.
#include <gtest/gtest.h>

#include "consensus/rotating_consensus.h"
#include "testing_util.h"

namespace lls {
namespace {

using testing::FakeRuntime;

Bytes val(std::uint8_t x) { return Bytes{std::byte{x}}; }

RotatingConsensusConfig config() {
  RotatingConsensusConfig c;
  c.retry_period = 10;
  c.initial_round_timeout = 50;
  c.timeout_step = 20;
  return c;
}

using EstimateMsg = RotatingConsensus::EstimateMsg;
using ProposalMsg = RotatingConsensus::ProposalMsg;
using AckMsg = RotatingConsensus::AckMsg;
using DecideMsg = RotatingConsensus::DecideMsg;

Bytes estimate_payload(Instance i, Round r, Round ts, const Bytes& v) {
  return EstimateMsg{i, r, ts, v}.encode();
}

Bytes proposal_payload(Instance i, Round r, const Bytes& v) {
  return ProposalMsg{i, r, v}.encode();
}

Bytes ack_payload(Instance i, Round r) { return AckMsg{i, r}.encode(); }

Bytes decide_payload(Instance i, const Bytes& v) {
  return DecideMsg{i, v}.encode();
}

struct Fixture {
  RotatingConsensus consensus;
  FakeRuntime rt;

  Fixture(ProcessId self, int n) : consensus(config()), rt(self, n) {
    consensus.on_start(rt);
  }

  void tick() { ASSERT_TRUE(rt.fire_next_timer(consensus)); }
};

TEST(RotatingUnit, ParticipantSendsEstimateToRoundZeroCoordinator) {
  Fixture f(/*self=*/2, /*n=*/3);
  f.consensus.propose_at(0, val(7));
  f.tick();
  EXPECT_EQ(f.rt.count_sent(0, msg_type::kRcEstimate), 1);
}

TEST(RotatingUnit, CoordinatorProposesOnMajorityEstimates) {
  Fixture f(/*self=*/0, /*n=*/3);
  f.consensus.propose_at(0, val(1));
  f.tick();  // includes own estimate (1 of 2 needed)
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kRcProposal), 0);
  f.consensus.on_message(f.rt, 1, msg_type::kRcEstimate,
                         estimate_payload(0, 0, kNoRound, val(2)));
  // Majority reached (self + p1): proposal broadcast to non-acked peers.
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kRcProposal), 1);
  EXPECT_EQ(f.rt.count_sent(2, msg_type::kRcProposal), 1);
}

TEST(RotatingUnit, CoordinatorPicksHighestTimestampEstimate) {
  Fixture f(/*self=*/0, /*n=*/5);
  f.consensus.propose_at(0, val(1));
  f.tick();
  // p1's estimate was locked in a previous round (ts=0) — it must win over
  // fresh estimates (ts = kNoRound).
  f.consensus.on_message(f.rt, 1, msg_type::kRcEstimate,
                         estimate_payload(0, 0, 0, val(9)));
  f.consensus.on_message(f.rt, 2, msg_type::kRcEstimate,
                         estimate_payload(0, 0, kNoRound, val(2)));
  const Bytes* prop = nullptr;
  for (const auto& s : f.rt.sent()) {
    if (s.type == msg_type::kRcProposal) prop = &s.payload;
  }
  ASSERT_NE(prop, nullptr);
  EXPECT_EQ(ProposalMsg::decode(*prop).value, val(9));
}

TEST(RotatingUnit, ParticipantAcksAndLocksProposal) {
  Fixture f(/*self=*/1, /*n=*/3);
  f.consensus.propose_at(0, val(1));
  f.consensus.on_message(f.rt, 0, msg_type::kRcProposal,
                         proposal_payload(0, 0, val(5)));
  EXPECT_EQ(f.rt.count_sent(0, msg_type::kRcAck), 1);
  // The locked value is re-reported in later rounds' estimates with ts=0.
  // Advance rounds (timeouts adapt, so keep stepping) until the rotation
  // reaches coordinator p2 and an estimate goes out to it.
  const Bytes* est = nullptr;
  for (int step = 0; step < 20 && est == nullptr; ++step) {
    f.rt.clear_sent();
    f.rt.advance(200);
    f.tick();
    for (const auto& s : f.rt.sent()) {
      if (s.type == msg_type::kRcEstimate && s.dst == 2) est = &s.payload;
    }
  }
  ASSERT_NE(est, nullptr);
  const EstimateMsg m = EstimateMsg::decode(*est);
  EXPECT_EQ(m.round, 2);  // current round (coordinator p2)
  EXPECT_EQ(m.ts, 0);     // lock timestamp
  EXPECT_EQ(m.value, val(5));
}

TEST(RotatingUnit, MajorityAcksDecideAndEcho) {
  Fixture f(/*self=*/0, /*n=*/3);
  f.consensus.propose_at(0, val(1));
  f.tick();
  f.consensus.on_message(f.rt, 1, msg_type::kRcEstimate,
                         estimate_payload(0, 0, kNoRound, val(1)));
  // Coordinator self-acks; one more ack is a majority of 3.
  f.rt.clear_sent();
  f.consensus.on_message(f.rt, 1, msg_type::kRcAck, ack_payload(0, 0));
  ASSERT_TRUE(f.consensus.decision(0).has_value());
  EXPECT_EQ(*f.consensus.decision(0), val(1));
  // Echo broadcast to everyone.
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kRcDecide), 1);
  EXPECT_EQ(f.rt.count_sent(2, msg_type::kRcDecide), 1);
}

TEST(RotatingUnit, DecidedProcessAnswersLateMessagesWithDecide) {
  Fixture f(/*self=*/0, /*n=*/3);
  f.consensus.propose_at(0, val(1));
  f.consensus.on_message(f.rt, 2, msg_type::kRcDecide,
                         decide_payload(0, val(4)));
  ASSERT_TRUE(f.consensus.decision(0).has_value());

  f.rt.clear_sent();
  f.consensus.on_message(f.rt, 1, msg_type::kRcEstimate,
                         estimate_payload(0, 3, kNoRound, val(9)));
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kRcDecide), 1);
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kRcProposal), 0);
}

TEST(RotatingUnit, RoundTimeoutRotatesCoordinatorAndAdaptsTimeout) {
  Fixture f(/*self=*/2, /*n=*/3);
  f.consensus.propose_at(0, val(1));
  f.tick();  // round 0, estimate to p0
  EXPECT_EQ(f.consensus.round_of(0), 0);
  f.rt.advance(60);  // beyond the 50us round timeout
  f.tick();
  EXPECT_EQ(f.consensus.round_of(0), 1);
  // Next rotation takes longer (timeout grew by the step).
  f.rt.advance(60);
  f.tick();
  EXPECT_EQ(f.consensus.round_of(0), 1);  // 60 < 70: not yet
  f.rt.advance(20);
  f.tick();
  EXPECT_EQ(f.consensus.round_of(0), 2);
}

TEST(RotatingUnit, ProposalForNonParticipantAdoptsValue) {
  // A process with no initial value receives a proposal: it adopts the
  // value (validity-safe — the value came from a proposer) and acks.
  Fixture f(/*self=*/1, /*n=*/3);
  f.consensus.on_message(f.rt, 0, msg_type::kRcProposal,
                         proposal_payload(0, 0, val(3)));
  EXPECT_EQ(f.rt.count_sent(0, msg_type::kRcAck), 1);
}

TEST(RotatingUnit, ConflictingDecideThrows) {
  Fixture f(/*self=*/1, /*n=*/3);
  f.consensus.on_message(f.rt, 0, msg_type::kRcDecide,
                         decide_payload(0, val(1)));
  EXPECT_THROW(f.consensus.on_message(f.rt, 2, msg_type::kRcDecide,
                                      decide_payload(0, val(2))),
               std::logic_error);
}

TEST(RotatingUnit, InstancesAreIndependent) {
  Fixture f(/*self=*/0, /*n=*/3);
  f.consensus.propose_at(0, val(1));
  f.consensus.propose_at(1, val(2));
  f.consensus.on_message(f.rt, 1, msg_type::kRcDecide,
                         decide_payload(1, val(2)));
  EXPECT_TRUE(f.consensus.decision(1).has_value());
  EXPECT_FALSE(f.consensus.decision(0).has_value());
  EXPECT_EQ(f.consensus.first_unknown(), 0u);  // in-order notification gate
}

}  // namespace
}  // namespace lls
