#include "omega/cr_omega.h"

#include <algorithm>
#include <stdexcept>

namespace lls {

namespace {

constexpr const char* kIncarnationKey = "cr_omega/incarnation";
constexpr const char* kLeaderKey = "cr_omega/leader";

/// Lexicographic "q is at least as good a leader as l" on (count, id).
bool at_least_as_good(std::uint64_t cq, ProcessId q, std::uint64_t cl,
                      ProcessId l) {
  return cq < cl || (cq == cl && q <= l);
}

bool strictly_better(std::uint64_t cq, ProcessId q, std::uint64_t cl,
                     ProcessId l) {
  return cq < cl || (cq == cl && q < l);
}

}  // namespace

// ---------------------------------------------------------------------------
// CrOmegaStable (Fig. 3).
// ---------------------------------------------------------------------------

void CrOmegaStable::on_start(Runtime& rt) {
  self_ = rt.id();
  n_ = rt.n();
  StableStorage* storage = rt.storage();
  if (storage == nullptr) {
    throw std::logic_error("CrOmegaStable requires Runtime::storage()");
  }

  // Initialization per Fig. 3: create-or-read the persistent pair, bump the
  // incarnation, and start from the stored leader.
  auto stored_incarnation = storage->read(kIncarnationKey);
  if (!stored_incarnation.has_value()) {
    storage->write(kIncarnationKey, CrStoredValue{0}.encode());
    storage->write(kLeaderKey, CrStoredValue{self_}.encode());
    stored_incarnation = storage->read(kIncarnationKey);
  }
  incarnation_ = CrStoredValue::decode(*stored_incarnation).value + 1;
  storage->write(kIncarnationKey, CrStoredValue{incarnation_}.encode());
  leader_ = static_cast<ProcessId>(
      CrStoredValue::decode(*storage->read(kLeaderKey)).value);

  leader_msg_.recovered.assign(static_cast<std::size_t>(n_), 0);
  leader_msg_.recovered[self_] = incarnation_;
  Duration scaled =
      config_.eta + static_cast<Duration>(incarnation_) * config_.incarnation_step;
  timeout_.assign(static_cast<std::size_t>(n_), scaled);

  notify_leader(rt, leader_);
  if (leader_ != self_) leader_timer_ = rt.set_timer(timeout_[leader_]);

  // Task 1: wait (η + incarnation·step), then persist the (possibly
  // refined) leader; heartbeats run throughout but only emit when self-led.
  leader_written_ = false;
  wait_timer_ = rt.set_timer(scaled);
  tick_timer_ = rt.set_timer(config_.eta);
}

void CrOmegaStable::send_leader_msg(Runtime& rt) {
  Bytes payload = leader_msg_.encode();
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q != self_) rt.send(q, msg_type::kCrLeader, payload);
  }
  // The LEADER broadcast doubles as the lease-hint renewal (no extra
  // message class), exactly like CeOmega's ALIVE.
  if (config_.lease_duration > 0) {
    lease_until_ = rt.now() + config_.lease_duration;
  }
}

void CrOmegaStable::set_leader(Runtime& rt, ProcessId q, bool restart_timer) {
  if (leader_ != q) {
    if (leader_ == self_) lease_until_ = 0;  // demotion kills the hint
    leader_ = q;
    notify_leader(rt, leader_);
    // Persist subsequent refinements once the initial wait completed: the
    // stored value is what the next incarnation starts from.
    if (leader_written_) {
      rt.storage()->write(kLeaderKey, CrStoredValue{leader_}.encode());
    }
  }
  if (leader_timer_ != kInvalidTimer) {
    rt.cancel_timer(leader_timer_);
    leader_timer_ = kInvalidTimer;
  }
  if (leader_ != self_ && restart_timer) {
    leader_timer_ = rt.set_timer(timeout_[leader_]);
  }
}

void CrOmegaStable::on_message(Runtime& rt, ProcessId src, MessageType type,
                               BytesView payload) {
  if (type != msg_type::kCrLeader) return;
  const CrLeaderMsg theirs = CrLeaderMsg::decode(payload);
  std::vector<std::uint64_t>& recovered = leader_msg_.recovered;
  if (theirs.recovered.size() != recovered.size()) return;  // foreign n
  for (std::size_t r = 0; r < recovered.size(); ++r) {
    recovered[r] = std::max(recovered[r], theirs.recovered[r]);
  }
  // Is the sender at least as good as the current leader?
  if (at_least_as_good(recovered[src], src, recovered[leader_], leader_)) {
    set_leader(rt, src, /*restart_timer=*/true);
  }
  // Do we deserve it ourselves?
  if (strictly_better(recovered[self_], self_, recovered[leader_], leader_)) {
    set_leader(rt, self_, /*restart_timer=*/false);
  }
}

void CrOmegaStable::on_timer(Runtime& rt, TimerId timer) {
  if (timer == wait_timer_) {
    wait_timer_ = kInvalidTimer;
    // End of Task 1's wait: persist the current leader. From here on the
    // stored leader tracks every change.
    rt.storage()->write(kLeaderKey, CrStoredValue{leader_}.encode());
    leader_written_ = true;
    return;
  }
  if (timer == tick_timer_) {
    tick_timer_ = rt.set_timer(config_.eta);
    if (leader_ == self_) send_leader_msg(rt);
    return;
  }
  if (timer != leader_timer_) return;
  leader_timer_ = kInvalidTimer;
  // Task 3: premature-suspicion guard + fall back to self.
  timeout_[leader_] += config_.timeout_step;
  set_leader(rt, self_, /*restart_timer=*/false);
}

// ---------------------------------------------------------------------------
// CrOmegaVolatile (Fig. 4).
// ---------------------------------------------------------------------------

void CrOmegaVolatile::on_start(Runtime& rt) {
  self_ = rt.id();
  n_ = rt.n();
  leader_ = kNoProcess;  // ⊥: no leader known after (re)start
  leader_msg_.recovered.assign(static_cast<std::size_t>(n_), 0);
  leader_msg_.recovered[self_] = 1;
  timeout_.assign(static_cast<std::size_t>(n_), config_.eta);
  alive_from_.clear();
  notify_leader(rt, leader_);

  Bytes empty;
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q != self_) rt.send(q, msg_type::kCrRecovered, empty);
  }
  tick_timer_ = rt.set_timer(config_.eta);
}

void CrOmegaVolatile::set_leader(Runtime& rt, ProcessId q,
                                 bool restart_timer) {
  if (leader_ != q) {
    leader_ = q;
    notify_leader(rt, leader_);
  }
  if (leader_timer_ != kInvalidTimer) {
    rt.cancel_timer(leader_timer_);
    leader_timer_ = kInvalidTimer;
  }
  if (q != kNoProcess && q != self_ && restart_timer) {
    leader_timer_ = rt.set_timer(timeout_[q]);
  }
}

void CrOmegaVolatile::maybe_self_elect(Runtime& rt) {
  if (leader_ == kNoProcess &&
      static_cast<int>(alive_from_.size()) >= n_ / 2) {
    set_leader(rt, self_, /*restart_timer=*/false);
  }
}

void CrOmegaVolatile::on_message(Runtime& rt, ProcessId src, MessageType type,
                                 BytesView payload) {
  switch (type) {
    case msg_type::kCrRecovered:
      ++leader_msg_.recovered[src];
      return;
    case msg_type::kCrAlive:
      alive_from_.insert(src);
      maybe_self_elect(rt);
      return;
    case msg_type::kCrLeader: {
      const CrLeaderMsg theirs = CrLeaderMsg::decode(payload);
      std::vector<std::uint64_t>& recovered = leader_msg_.recovered;
      if (theirs.recovered.size() != recovered.size()) return;
      for (std::size_t r = 0; r < recovered.size(); ++r) {
        recovered[r] = std::max(recovered[r], theirs.recovered[r]);
      }
      // Adaptive guard against our own churn: a process that has recovered
      // k times widens its timeouts to at least k steps, so eventually its
      // timer on ℓ stops expiring (the papers' Timeout[q] := max(Timeout[q],
      // Recovered[p]) line, scaled to time units).
      timeout_[src] = std::max(
          timeout_[src],
          config_.eta + static_cast<Duration>(recovered[self_]) *
                            config_.incarnation_step);
      bool adopt =
          (leader_ == kNoProcess &&
           strictly_better(recovered[src], src, recovered[self_], self_)) ||
          (leader_ != kNoProcess &&
           at_least_as_good(recovered[src], src, recovered[leader_], leader_));
      if (adopt) set_leader(rt, src, /*restart_timer=*/true);
      if (leader_ == kNoProcess ||
          strictly_better(recovered[self_], self_, recovered[leader_],
                          leader_)) {
        set_leader(rt, self_, /*restart_timer=*/false);
      }
      return;
    }
    default:
      return;
  }
}

void CrOmegaVolatile::on_timer(Runtime& rt, TimerId timer) {
  if (timer == tick_timer_) {
    tick_timer_ = rt.set_timer(config_.eta);
    if (leader_ == self_) {
      Bytes payload = leader_msg_.encode();
      for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
        if (q != self_) rt.send(q, msg_type::kCrLeader, payload);
      }
    } else if (leader_ == kNoProcess) {
      Bytes empty;
      for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
        if (q != self_) rt.send(q, msg_type::kCrAlive, empty);
      }
    }
    return;
  }
  if (timer != leader_timer_) return;
  leader_timer_ = kInvalidTimer;
  // Task 3: widen the timeout, fall back to ⊥ and restart the ALIVE round.
  if (leader_ != kNoProcess) timeout_[leader_] += config_.timeout_step;
  alive_from_.clear();
  set_leader(rt, kNoProcess, /*restart_timer=*/false);
}

}  // namespace lls
