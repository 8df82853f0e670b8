#include "omega/ce_omega.h"

#include <algorithm>

#include "common/logging.h"

namespace lls {

void CeOmega::on_start(Runtime& rt) {
  self_ = rt.id();
  n_ = rt.n();
  acc_.assign(static_cast<std::size_t>(n_), 0);
  prov_.assign(static_cast<std::size_t>(n_), 0);
  last_phase_.assign(static_cast<std::size_t>(n_), 0);
  timeout_.assign(static_cast<std::size_t>(n_), config_.initial_timeout);

  leader_ = compute_leader();
  notify_leader(rt, leader_);
  if (leader_ != self_) arm_leader_timer(rt);
  // The ALIVE tick runs on every process; it only emits when the process
  // believes itself leader (Task 1 of the paper's algorithm).
  alive_timer_ = rt.set_timer(config_.eta);
  if (leader_ == self_) send_alive(rt);
}

ProcessId CeOmega::compute_leader() const {
  ProcessId best = 0;
  for (ProcessId q = 1; q < static_cast<ProcessId>(n_); ++q) {
    if (key_counter(q) < key_counter(best)) best = q;
  }
  return best;
}

void CeOmega::update_leadership(Runtime& rt, bool force_restart_timer) {
  ProcessId next = compute_leader();
  if (next != leader_) {
    // Losing self-leadership kills the lease hint at once — don't let a
    // stale window outlive the belief it certified.
    if (leader_ == self_) lease_until_ = 0;
    LLS_TRACE("t=%lld p%u leader %u -> %u", static_cast<long long>(rt.now()),
              self_, leader_, next);
    leader_ = next;
    notify_leader(rt, leader_);
    disarm_leader_timer(rt);
    if (leader_ != self_) arm_leader_timer(rt);
    return;
  }
  if (force_restart_timer && leader_ != self_) {
    disarm_leader_timer(rt);
    arm_leader_timer(rt);
  }
}

void CeOmega::arm_leader_timer(Runtime& rt) {
  leader_timer_ = rt.set_timer(timeout_[leader_]);
}

void CeOmega::disarm_leader_timer(Runtime& rt) {
  if (leader_timer_ != kInvalidTimer) {
    rt.cancel_timer(leader_timer_);
    leader_timer_ = kInvalidTimer;
  }
}

void CeOmega::bump_timeout(ProcessId q) {
  switch (config_.timeout_policy) {
    case CeOmegaConfig::TimeoutPolicy::kNone:
      break;
    case CeOmegaConfig::TimeoutPolicy::kAdditive:
      timeout_[q] += config_.additive_step;
      break;
    case CeOmegaConfig::TimeoutPolicy::kMultiplicative:
      timeout_[q] = static_cast<Duration>(
          static_cast<double>(timeout_[q]) * config_.multiplicative_factor);
      break;
  }
}

void CeOmega::send_alive(Runtime& rt) {
  AliveMsg msg{acc_[self_], my_phase_};
  Bytes payload = msg.encode();
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q != self_) rt.send(q, msg_type::kCeOmegaAlive, payload);
  }
  // The same heartbeat that advertises leadership renews the lease hint —
  // no extra message class (ISSUE: leases ride existing traffic).
  if (config_.lease_duration > 0) {
    lease_until_ = rt.now() + config_.lease_duration;
  }
}

void CeOmega::on_message(Runtime& rt, ProcessId src, MessageType type,
                         BytesView payload) {
  switch (type) {
    case msg_type::kCeOmegaAlive:
      handle_alive(rt, src, AliveMsg::decode(payload));
      break;
    case msg_type::kCeOmegaAccuse:
      handle_accuse(rt, src, AccuseMsg::decode(payload));
      break;
    default:
      break;  // not ours
  }
}

void CeOmega::handle_alive(Runtime& rt, ProcessId src, const AliveMsg& msg) {
  acc_[src] = std::max(acc_[src], msg.counter);
  last_phase_[src] = std::max(last_phase_[src], msg.phase);
  // A fresh heartbeat clears local provisional suspicion: the sender's own
  // counter is authoritative for its entry.
  prov_[src] = 0;
  // Restart the monitor timer when the heartbeat came from the (possibly
  // newly adopted) leader.
  update_leadership(rt, /*force_restart_timer=*/compute_leader() == src);
}

void CeOmega::handle_accuse(Runtime& rt, ProcessId src, const AccuseMsg& msg) {
  (void)src;
  // Under the broadcast ablation (A3) accusations fan out to everyone; only
  // the accused acts on them, so broadcasting changes message cost, not
  // semantics.
  if (msg.accused != self_) return;
  if (config_.phase_dedup) {
    if (msg.phase != my_phase_) return;  // stale volley, already counted
    ++acc_[self_];
    ++my_phase_;
  } else {
    ++acc_[self_];
  }
  // An accepted accusation means some follower timed out on us: our ALIVEs
  // are not landing everywhere. Drop the lease hint immediately instead of
  // letting it run out the window.
  lease_until_ = 0;
  update_leadership(rt, /*force_restart_timer=*/false);
}

void CeOmega::on_timer(Runtime& rt, TimerId timer) {
  if (timer == alive_timer_) {
    alive_timer_ = rt.set_timer(config_.eta);
    if (leader_ == self_) send_alive(rt);
    return;
  }
  if (timer != leader_timer_) return;  // cancelled/stale
  leader_timer_ = kInvalidTimer;

  // The monitored leader was silent for a whole timeout: accuse it (unicast
  // to the accused — broadcasting would forfeit communication efficiency),
  // demote it provisionally, and adapt the timeout so a timely source is
  // eventually never accused again.
  ProcessId accused = leader_;
  AccuseMsg msg{accused, last_phase_[accused]};
  Bytes payload = msg.encode();
  if (config_.broadcast_accusations) {
    for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
      if (q != self_) rt.send(q, msg_type::kCeOmegaAccuse, payload);
    }
  } else {
    rt.send(accused, msg_type::kCeOmegaAccuse, payload);
  }
  ++prov_[accused];
  bump_timeout(accused);
  update_leadership(rt, /*force_restart_timer=*/true);
}

}  // namespace lls
