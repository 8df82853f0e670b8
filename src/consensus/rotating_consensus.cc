#include "consensus/rotating_consensus.h"

#include <stdexcept>

namespace lls {

// --- actor -------------------------------------------------------------------

void RotatingConsensus::on_start(Runtime& rt) {
  self_ = rt.id();
  n_ = rt.n();
  tick_timer_ = rt.set_timer(config_.retry_period);
}

void RotatingConsensus::propose(Bytes value) {
  propose_at(next_propose_++, std::move(value));
}

void RotatingConsensus::propose_at(Instance i, Bytes value) {
  InstanceState& st = state(i);
  if (st.participating || is_decided(i)) return;
  st.participating = true;
  st.estimate = std::move(value);
  st.estimate_ts = kNoRound;
  st.round_timeout = config_.initial_round_timeout;
  next_propose_ = std::max(next_propose_, i + 1);
}

std::optional<Bytes> RotatingConsensus::decision(Instance i) const {
  if (i < log_.size()) return log_[i];
  return std::nullopt;
}

Round RotatingConsensus::round_of(Instance i) const {
  auto it = states_.find(i);
  return it == states_.end() ? 0 : it->second.round;
}

void RotatingConsensus::advance_round(InstanceState& st, Round to,
                                      TimePoint now) {
  st.round = to;
  st.round_started = now;
  st.proposal_acked = false;
  st.estimates_from.clear();
  st.have_best = false;
  st.best_ts = kNoRound;
  st.proposal_sent = false;
  st.acks.clear();
}

void RotatingConsensus::on_timer(Runtime& rt, TimerId timer) {
  if (timer != tick_timer_) return;
  tick_timer_ = rt.set_timer(config_.retry_period);
  for (auto& [i, st] : states_) {
    if (!st.participating || is_decided(i)) continue;
    tick_instance(rt, i, st);
  }
}

void RotatingConsensus::tick_instance(Runtime& rt, Instance i,
                                      InstanceState& st) {
  if (st.round_started == 0) st.round_started = rt.now();

  // Round change on timeout: suspect the coordinator, rotate, adapt.
  if (rt.now() - st.round_started > st.round_timeout) {
    st.round_timeout += config_.timeout_step;
    advance_round(st, st.round + 1, rt.now());
  }

  ProcessId c = coordinator(st.round);

  // Coordinator half: include own estimate, propose on majority.
  if (c == self_) {
    if (!st.estimates_from.contains(self_)) {
      st.estimates_from.insert(self_);
      if (!st.have_best || st.estimate_ts > st.best_ts) {
        st.best_estimate = st.estimate;
        st.best_ts = st.estimate_ts;
        st.have_best = true;
      }
    }
    coordinate(rt, i, st);
    return;
  }

  // Participant half: keep the current-round message flowing (loss-proof
  // retransmission; the receiver side is idempotent).
  if (st.proposal_acked) {
    rt.send(c, msg_type::kRcAck, AckMsg{i, st.round}.encode());
  } else {
    rt.send(c, msg_type::kRcEstimate,
            EstimateMsg{i, st.round, st.estimate_ts, st.estimate}.encode());
  }
}

void RotatingConsensus::coordinate(Runtime& rt, Instance i, InstanceState& st) {
  if (!st.proposal_sent) {
    if (static_cast<int>(st.estimates_from.size()) >= majority()) {
      st.proposal_sent = true;
      st.acks.insert(self_);
      st.estimate = st.best_estimate;  // adopt own proposal
      st.estimate_ts = st.round;
      st.proposal_acked = true;
    } else {
      return;  // keep waiting; participants retransmit estimates
    }
  }
  // (Re)broadcast the proposal to everyone who has not acked yet.
  ProposalMsg msg{i, st.round, st.estimate};
  Bytes payload = msg.encode();
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q != self_ && !st.acks.contains(q)) {
      rt.send(q, msg_type::kRcProposal, payload);
    }
  }
}

void RotatingConsensus::learn(Runtime& rt, Instance i, const Bytes& value) {
  if (i >= log_.size()) log_.resize(i + 1);
  if (log_[i].has_value()) {
    if (*log_[i] != value) {
      throw std::logic_error("rotating consensus agreement violated");
    }
    return;
  }
  log_[i] = value;

  // Echo-broadcast the decision once (the Θ(n²) dissemination step).
  Bytes payload = DecideMsg{i, value}.encode();
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q != self_) rt.send(q, msg_type::kRcDecide, payload);
  }

  while (next_notify_ < log_.size() && log_[next_notify_].has_value()) {
    const Bytes& v = *log_[next_notify_];
    Instance idx = next_notify_;
    ++next_notify_;
    notify_decision(rt, idx, v);
  }
}

void RotatingConsensus::send_decide(Runtime& rt, ProcessId dst, Instance i) {
  rt.send(dst, msg_type::kRcDecide, DecideMsg{i, *log_[i]}.encode());
}

void RotatingConsensus::on_message(Runtime& rt, ProcessId src, MessageType type,
                                   BytesView payload) {
  switch (type) {
    case msg_type::kRcEstimate:
      handle_estimate(rt, src, EstimateMsg::decode(payload));
      break;
    case msg_type::kRcProposal:
      handle_proposal(rt, src, ProposalMsg::decode(payload));
      break;
    case msg_type::kRcAck:
      handle_ack(rt, src, AckMsg::decode(payload));
      break;
    case msg_type::kRcDecide:
      handle_decide(rt, DecideMsg::decode(payload));
      break;
    default:
      break;
  }
}

void RotatingConsensus::handle_estimate(Runtime& rt, ProcessId src,
                                        const EstimateMsg& msg) {
  // A decided process answers any late round message with the decision —
  // this is what makes the undecided side's retransmission eventually
  // terminate everyone over lossy links.
  if (is_decided(msg.instance)) {
    send_decide(rt, src, msg.instance);
    return;
  }
  InstanceState& st = state(msg.instance);
  if (!st.participating) return;  // cannot coordinate without an estimate
  if (msg.round > st.round) advance_round(st, msg.round, rt.now());
  if (msg.round != st.round || coordinator(st.round) != self_) return;
  if (st.estimates_from.insert(src).second) {
    if (!st.have_best || msg.ts > st.best_ts) {
      st.best_estimate = msg.value;
      st.best_ts = msg.ts;
      st.have_best = true;
    }
  }
  // Maybe this completes the majority; coordinate immediately rather than
  // waiting for the next tick.
  if (!st.estimates_from.contains(self_)) {
    st.estimates_from.insert(self_);
    if (!st.have_best || st.estimate_ts > st.best_ts) {
      st.best_estimate = st.estimate;
      st.best_ts = st.estimate_ts;
      st.have_best = true;
    }
  }
  coordinate(rt, msg.instance, st);
}

void RotatingConsensus::handle_proposal(Runtime& rt, ProcessId src,
                                        const ProposalMsg& msg) {
  if (is_decided(msg.instance)) {
    send_decide(rt, src, msg.instance);
    return;
  }
  InstanceState& st = state(msg.instance);
  if (!st.participating) {
    // Adopt the proposal as our estimate: a process without an initial
    // value can still help lock the round's value.
    st.participating = true;
    st.round_timeout = config_.initial_round_timeout;
  }
  if (msg.round > st.round) advance_round(st, msg.round, rt.now());
  if (msg.round != st.round) return;  // stale proposal
  st.estimate = msg.value;
  st.estimate_ts = msg.round;
  st.proposal_acked = true;
  rt.send(src, msg_type::kRcAck, AckMsg{msg.instance, msg.round}.encode());
}

void RotatingConsensus::handle_ack(Runtime& rt, ProcessId src,
                                   const AckMsg& msg) {
  if (is_decided(msg.instance)) {
    send_decide(rt, src, msg.instance);
    return;
  }
  InstanceState& st = state(msg.instance);
  if (msg.round != st.round || coordinator(st.round) != self_ ||
      !st.proposal_sent) {
    return;
  }
  st.acks.insert(src);
  if (static_cast<int>(st.acks.size()) >= majority()) {
    learn(rt, msg.instance, st.estimate);
  }
}

void RotatingConsensus::handle_decide(Runtime& rt, const DecideMsg& msg) {
  learn(rt, msg.instance, msg.value);
}

}  // namespace lls
