// RotatingConsensus: classic rotating-coordinator consensus baseline
// (Chandra–Toueg ◇S shape, majority-based).
//
// Per instance, rounds rotate the coordinator over all processes
// (coordinator of round r is r mod n). Every undecided participant
// retransmits its current-round message each tick, so the protocol is live
// over lossy links once timeouts have adapted; decisions spread by an
// echo-broadcast, the textbook Θ(n²) dissemination.
//
// This baseline deliberately lacks the paper's two efficiency devices — a
// stable Omega-chosen proposer and single-sender steady state — and is the
// comparison point for the T3/F2 benchmarks: Θ(n²) messages per instance
// versus LogConsensus's Θ(n), and no single-sender regime, ever.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "consensus/consensus.h"
#include "net/wire.h"

namespace lls {

struct RotatingConsensusConfig {
  /// Retransmission tick.
  Duration retry_period = 20 * kMillisecond;
  /// Initial per-round timeout before moving to the next coordinator.
  Duration initial_round_timeout = 60 * kMillisecond;
  /// Additive timeout growth per round change (adaptation).
  Duration timeout_step = 20 * kMillisecond;
};

class RotatingConsensus final : public ConsensusActor {
 public:
  explicit RotatingConsensus(RotatingConsensusConfig config)
      : config_(config) {}

  // Actor ------------------------------------------------------------------
  void on_start(Runtime& rt) override;
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override;
  void on_timer(Runtime& rt, TimerId timer) override;

  // ConsensusActor ---------------------------------------------------------
  /// Proposes at the lowest instance this process has not proposed yet.
  void propose(Bytes value) override;

  /// Proposes this process's initial value for a specific instance (the
  /// Chandra–Toueg model: every participant holds an initial value).
  void propose_at(Instance i, Bytes value);

  [[nodiscard]] std::optional<Bytes> decision(Instance i) const override;
  [[nodiscard]] Instance first_unknown() const override { return next_notify_; }

  [[nodiscard]] Round round_of(Instance i) const;

  // Wire messages (layouts declared once; see net/wire.h).
  struct EstimateMsg {
    Instance instance = 0;
    Round round = 0;
    Round ts = kNoRound;
    Bytes value;

    LLS_WIRE_FIELDS(EstimateMsg, instance, round, ts, value)
  };
  struct ProposalMsg {
    Instance instance = 0;
    Round round = 0;
    Bytes value;

    LLS_WIRE_FIELDS(ProposalMsg, instance, round, value)
  };
  struct AckMsg {
    Instance instance = 0;
    Round round = 0;

    LLS_WIRE_FIELDS(AckMsg, instance, round)
  };
  struct DecideMsg {
    Instance instance = 0;
    Bytes value;

    LLS_WIRE_FIELDS(DecideMsg, instance, value)
  };

 private:
  struct InstanceState {
    // Participant state.
    Bytes estimate;
    Round estimate_ts = kNoRound;  // round in which the estimate was locked
    bool participating = false;    // has an initial value
    Round round = 0;
    TimePoint round_started = 0;
    Duration round_timeout = 0;
    bool proposal_acked = false;   // current round's proposal received

    // Coordinator state for the current round.
    std::set<ProcessId> estimates_from;
    Bytes best_estimate;
    Round best_ts = kNoRound;
    bool have_best = false;
    bool proposal_sent = false;
    std::set<ProcessId> acks;
  };

  [[nodiscard]] ProcessId coordinator(Round r) const {
    return static_cast<ProcessId>(r % n_);
  }
  [[nodiscard]] int majority() const { return n_ / 2 + 1; }
  [[nodiscard]] bool is_decided(Instance i) const {
    return i < log_.size() && log_[i].has_value();
  }

  InstanceState& state(Instance i) { return states_[i]; }
  void advance_round(InstanceState& st, Round to, TimePoint now);
  void coordinate(Runtime& rt, Instance i, InstanceState& st);
  void tick_instance(Runtime& rt, Instance i, InstanceState& st);
  void learn(Runtime& rt, Instance i, const Bytes& value);
  void send_decide(Runtime& rt, ProcessId dst, Instance i);

  void handle_estimate(Runtime& rt, ProcessId src, const EstimateMsg& msg);
  void handle_proposal(Runtime& rt, ProcessId src, const ProposalMsg& msg);
  void handle_ack(Runtime& rt, ProcessId src, const AckMsg& msg);
  void handle_decide(Runtime& rt, const DecideMsg& msg);

  RotatingConsensusConfig config_;
  ProcessId self_ = kNoProcess;
  int n_ = 0;
  TimerId tick_timer_ = kInvalidTimer;

  std::map<Instance, InstanceState> states_;
  std::vector<std::optional<Bytes>> log_;
  Instance next_notify_ = 0;
  Instance next_propose_ = 0;
};

}  // namespace lls
