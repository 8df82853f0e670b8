#include "consensus/log_consensus.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.h"

namespace lls {

LogConsensus::LogConsensus(LogConsensusConfig config, const OmegaActor* omega,
                           DecisionSink sink)
    : config_(config),
      omega_(omega),
      sink_(std::move(sink)),
      durable_key_(group_tag() == 0 ? std::string("log_consensus/state")
                                    : "log_consensus/state/" +
                                          std::to_string(group_tag())) {}

void LogConsensus::on_start(Runtime& rt) {
  self_ = rt.id();
  n_ = rt.n();
  rt_ = &rt;
  // Ack and promise sets are n-bit masks; a window of 0 never proposes.
  if (n_ > 64 || config_.max_inflight == 0) {
    throw std::invalid_argument(
        "LogConsensus needs n <= 64 and max_inflight >= 1");
  }
  support_until_.assign(static_cast<std::size_t>(n_), 0);
  // Sharded engines get per-shard histograms (the registry is name-keyed,
  // so the shard suffix is the label).
  decide_latency_ = &rt.obs().registry().histogram(
      config_.shard < 0 ? std::string("consensus_decide_latency_ms")
                        : "consensus_decide_latency_ms_shard" +
                              std::to_string(config_.shard));
  if (config_.durable) restore(rt);
  tick_timer_ = rt.set_timer(config_.retry_period);
}

// ---------------------------------------------------------------------------
// Durable state (crash-recovery extension): a checkpoint under durable_key_
// plus a ring of journal records after it (DESIGN.md §7).
// ---------------------------------------------------------------------------

void LogState::record(LogChange::Kind kind, Round round, Instance i,
                      BytesView value) {
  if (journal != nullptr) {
    wire::append(*journal, LogChange{kind, round, i, WireBlob::ref(value)});
  }
}

bool LogState::promise(Round round) {
  const Round before = acceptor.promised();
  if (!acceptor.on_prepare(round)) return false;
  if (acceptor.promised() != before) {
    record(LogChange::Kind::kPromise, round, 0, {});
  }
  return true;
}

bool LogState::accept(Round round, Instance i, BytesView value) {
  const bool granted = decided(i) ? acceptor.on_prepare(round)
                                  : acceptor.on_accept(round, i, value);
  if (!granted) return false;
  record(LogChange::Kind::kAccept, round, i, value);
  return true;
}

bool LogState::accept(Round round, Instance i, Bytes&& value) {
  if (decided(i)) return accept(round, i, BytesView(value));
  if (!acceptor.on_accept(round, i, std::move(value))) return false;
  record(LogChange::Kind::kAccept, round, i, acceptor.accepted(i)->value);
  return true;
}

std::optional<Bytes> LogState::decide(Instance i, BytesView value) {
  const Instance rel = i - base;
  if (rel >= log.size()) log.resize(rel + 1);
  std::optional<Bytes> held = acceptor.take(i);
  std::optional<Bytes> displaced;
  if (held.has_value() && bytes_equal(*held, value)) {
    log[rel] = std::move(held);
  } else {
    log[rel] = Bytes(value.begin(), value.end());
    displaced = std::move(held);
  }
  record(LogChange::Kind::kDecide, kNoRound, i, value);
  return displaced;
}

void LogState::compact(Instance upto) {
  log.erase(log.begin(),
            log.begin() + static_cast<std::ptrdiff_t>(upto - base));
  base = upto;
  acceptor.forget_upto(upto);
}

void LogState::apply(const LogChange& change) {
  switch (change.kind) {
    case LogChange::Kind::kPromise:
      promise(change.round);
      break;
    case LogChange::Kind::kAccept:
      accept(change.round, change.instance, change.value.view());
      break;
    case LogChange::Kind::kDecide:
      decide(change.instance, change.value.view());
      break;
  }
}

StableStorage& LogConsensus::durable_storage(Runtime& rt) const {
  StableStorage* storage = rt.storage();
  if (storage == nullptr) {
    throw std::logic_error("durable LogConsensus requires Runtime::storage()");
  }
  return *storage;
}

const std::string& LogConsensus::journal_key(std::uint64_t seq) {
  journal_key_.assign(durable_key_);
  journal_key_ += "/journal/";
  journal_key_ += std::to_string(seq % kJournalSlots);
  return journal_key_;
}

void LogConsensus::persist(Runtime& rt) {
  StableStorage& storage = durable_storage(rt);
  // Slot journal_seq_ % K still holds record journal_seq_ - K, which replay
  // needs unless the checkpoint covers it; if not, a checkpoint of the
  // current state takes this write's place.
  if (journal_seq_ >= checkpoint_seq_ + kJournalSlots) {
    checkpoint(storage);
    return;
  }
  auto record = wire::encode_pooled(
      rt.pool(), LogRecord{journal_seq_, WireBlob::ref(journal_)});
  storage.write(journal_key(journal_seq_), record.view());
  ++journal_seq_;
  journal_.clear();
}

void LogConsensus::checkpoint(StableStorage& storage) {
  const Bytes state = state_.encode();
  storage.write(durable_key_,
                LogCheckpoint{journal_seq_, WireBlob::ref(state)}.encode());
  checkpoint_seq_ = journal_seq_;
  journal_.clear();
}

void LogConsensus::restore(Runtime& rt) {
  StableStorage& storage = durable_storage(rt);
  // Crash-recovery conservatism: fences are volatile, so a recovered
  // acceptor may have granted a supporting reply it no longer remembers.
  // Refuse support to EVERYONE (fence-all: holder = kNoProcess) for one
  // full window — any lease the old promise could still be backing has
  // expired by then. Applies even on first boot (we cannot tell the two
  // apart without persisting fences).
  if (fence_enforced()) {
    fence_holder_ = kNoProcess;
    fence_round_ = kNoRound;
    fence_until_ = rt.now() + config_.lease.duration;
  }
  if (auto blob = storage.read(durable_key_); blob.has_value()) {
    const auto cp = LogCheckpoint::decode(*blob);
    state_ = LogState::decode(cp.state.view());
    checkpoint_seq_ = cp.next_seq;
  }
  // Replay the records after the checkpoint. The journal ends at the first
  // slot that is empty, holds a record from an earlier lap, or holds one
  // that does not decode whole (a torn tail); the next persist overwrites
  // that slot.
  for (journal_seq_ = checkpoint_seq_;; ++journal_seq_) {
    auto blob = storage.read(journal_key(journal_seq_));
    if (!blob.has_value()) break;
    std::vector<LogChange> changes;
    try {
      const auto record = LogRecord::decode(*blob);
      if (record.seq != journal_seq_) break;
      changes = wire::decode_all<LogChange>(record.changes.view());
    } catch (const SerializationError&) {
      break;
    }
    for (const LogChange& change : changes) state_.apply(change);
  }
  state_.journal = &journal_;
  highest_seen_round_ =
      std::max(highest_seen_round_, state_.acceptor.promised());
  // Re-deliver decisions for the restored contiguous prefix so a recovering
  // application can rebuild its state machine.
  next_notify_ = state_.base;
  deliver_decided_prefix(rt);
}

void LogConsensus::propose(Bytes value) {
  ++proposals_;
  // Values must be unique per submission (the RSM layer guarantees this via
  // command ids): the decided log is the only completion signal we have.
  // A byte-identical value already queued or in flight is the same
  // submission racing itself (e.g. a client retry re-admitted before the
  // first placement decided) — proposing it again could only burn an extra
  // instance, so drop it here.
  if (queued_or_in_flight(value)) {
    ++dup_proposals_suppressed_;
    return;
  }
  pending_.push_back(std::move(value));
  // Eager dispatch: a ready leader assigns immediately (2-message-delay
  // steady state); a follower forwards now rather than on the next tick.
  if (rt_ == nullptr) return;
  if (i_am_omega_leader()) {
    if (leader_ready_) assign_pending(*rt_);
  } else {
    ProcessId l = omega_->leader();
    if (l != kNoProcess && l != self_) {
      ForwardMsg fwd{WireBlob::ref(pending_.back())};
      rt_->send(l, msg_type::kForward,
                wire::encode_pooled(rt_->pool(), fwd).view());
    }
  }
}

std::optional<Bytes> LogConsensus::decision(Instance i) const {
  const Bytes* v = decided_value(i);
  if (v != nullptr) return *v;
  return std::nullopt;
}

bool LogConsensus::queued_or_in_flight(BytesView value) const {
  for (const Bytes& v : pending_) {
    if (bytes_equal(v, value)) return true;
  }
  for (const Slot& slot : slots_) {
    if (bytes_equal(slot_value(slot.instance), value)) return true;
  }
  return false;
}

std::vector<LogConsensus::Slot>::iterator LogConsensus::find_slot(Instance i) {
  auto it = std::lower_bound(
      slots_.begin(), slots_.end(), i,
      [](const Slot& slot, Instance j) { return slot.instance < j; });
  return it != slots_.end() && it->instance == i ? it : slots_.end();
}

void LogConsensus::on_timer(Runtime& rt, TimerId timer) {
  if (timer != tick_timer_) return;
  tick_timer_ = rt.set_timer(config_.retry_period);
  drive(rt);
}

void LogConsensus::drive(Runtime& rt) {
  if (config_.lease.enabled) sample_lease_span(rt);
  if (i_am_omega_leader()) {
    if (!leader_ready_ && !preparing_) start_prepare(rt);
    if (leader_ready_) assign_pending(rt);
    retransmit(rt);
    return;
  }
  // Not the leader: drop any proposer role and re-forward pending values to
  // whoever Omega currently trusts. Followers send only these forwards and
  // direct replies, never broadcasts.
  if (preparing_ || leader_ready_) abdicate();
  ProcessId l = omega_->leader();
  if (l != kNoProcess && l != self_) {
    for (const Bytes& v : pending_) {
      ForwardMsg fwd{WireBlob::ref(v)};
      rt.send(l, msg_type::kForward,
              wire::encode_pooled(rt.pool(), fwd).view());
    }
  }
}

void LogConsensus::start_prepare(Runtime& rt) {
  // Campaign fence: the fence discipline binds this process's own candidacy
  // too. Self-promising while fenced to another holder would hand the one
  // acceptor the quorum-intersection argument hinges on to a rival — this
  // very process — letting it assemble a majority inside the holder's
  // window (asymmetric partitions make this reachable; see DESIGN.md §14).
  // Also covers the crash-recovery fence-all (holder = kNoProcess). No
  // state changes before this point, and drive()'s retry loop re-attempts
  // once the window lapses.
  if (fenced_against(self_, rt.now())) return;
  Round bound =
      std::max({highest_seen_round_, state_.acceptor.promised(), my_round_});
  my_round_ = next_ballot(self_, n_, bound);
  preparing_ = true;
  promises_ = 0;
  promise_merge_.clear();
  prepare_from_ = first_unknown();

  // Self-promise: raise the local acceptor's promise and merge its state.
  // The promise is durable before the PREPARE leaves, so a recovered
  // process never reuses a ballot it already sent.
  state_.promise(my_round_);
  if (config_.durable) persist(rt);
  promises_ = bit(self_);
  for (const auto& pair : state_.acceptor.all_accepted()) {
    const Instance i = pair.instance;
    if (i >= prepare_from_ && !is_decided(i)) promise_merge_[i] = pair;
  }
  if (std::popcount(promises_) >= majority()) {
    become_ready(rt);
    return;
  }
  auto payload = wire::encode_pooled(
      rt.pool(), PrepareMsg{my_round_, prepare_from_, rt.now()});
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q != self_) rt.send(q, msg_type::kPrepare, payload.view());
  }
}

void LogConsensus::become_ready(Runtime& rt) {
  leader_ready_ = true;
  preparing_ = false;
  {
    obs::Event e;
    e.type = obs::EventType::kEpochStart;
    e.t = rt.now();
    e.process = self_;
    e.a = static_cast<std::uint64_t>(my_round_);
    rt.obs().bus().publish(e);
  }

  // The proposer's frontier: above everything decided, merged or in flight.
  next_free_ = std::max<Instance>(next_free_, log_size());
  next_free_ = std::max<Instance>(next_free_, prepare_from_);
  if (!promise_merge_.empty()) {
    next_free_ = std::max<Instance>(next_free_, promise_merge_.rbegin()->first + 1);
  }
  // Lease freshness gate: local reads are stale until every instance below
  // this epoch-start frontier has been learned and applied (a predecessor
  // may have decided writes this leader has merely merged, not delivered).
  ready_watermark_ = next_free_;

  // Fill holes the quorum knows nothing about with no-ops so the log prefix
  // becomes decidable, and re-propose every merged value at my round.
  for (Instance i = first_unknown(); i < next_free_; ++i) {
    if (is_decided(i) || promise_merge_.contains(i)) continue;
    promise_merge_[i] = Acceptor::AcceptedPair{i, kNoRound, Bytes{}};
  }
  for (auto& [i, pair] : promise_merge_) {
    if (!is_decided(i)) start_instance(rt, i, std::move(pair.value));
  }
  promise_merge_.clear();

  // Re-disseminate every decision this leader still holds (compacted
  // entries are gone by contract): a new leader owes the followers the
  // decided prefix (their acks prune this quickly).
  for (Instance i = state_.base; i < log_size(); ++i) {
    if (decided_value(i) == nullptr) continue;
    auto& unacked = decide_unacked_[i];
    for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
      if (q != self_) unacked.insert(q);
    }
  }
  assign_pending(rt);
}

void LogConsensus::assign_pending(Runtime& rt) {
  while (!pending_.empty() && window_open()) {
    Bytes value = std::move(pending_.front());
    pending_.pop_front();
    // A stale-ready leader's frontier can lag the decided log (a competing
    // leader decided instances this one merely learned); assigning a
    // decided slot would orphan the value — learn() for that instance
    // already ran and will never displace it back to pending_.
    while (is_decided(next_free_)) ++next_free_;
    start_instance(rt, next_free_++, std::move(value));
  }
}

void LogConsensus::start_instance(Runtime& rt, Instance i, Bytes value) {
  // Callers pick an undecided instance, and my acceptor's promise is
  // my_round_ while I propose, so the self-accept leaves a pair. They also
  // go upward (become_ready's merged instances in order, then next_free_),
  // so the slots stay sorted.
  state_.accept(my_round_, i, std::move(value));
  slots_.push_back(Slot{i, bit(self_), rt.now()});
  const Bytes& held = slot_value(i);
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q != self_) send_accept(rt, q, i, held);
  }
}

void LogConsensus::send_accept(Runtime& rt, ProcessId dst, Instance i,
                               BytesView value) {
  // Borrow the in-flight value and encode into a pooled frame: the steady
  // state Phase-2 send allocates nothing.
  AcceptMsg msg{my_round_, i, first_unknown(), WireBlob::ref(value), rt.now()};
  rt.send(dst, msg_type::kAccept, wire::encode_pooled(rt.pool(), msg).view());
}

void LogConsensus::retransmit(Runtime& rt) {
  if (preparing_) {
    auto payload = wire::encode_pooled(
        rt.pool(), PrepareMsg{my_round_, prepare_from_, rt.now()});
    for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
      if (q != self_ && (promises_ & bit(q)) == 0) {
        rt.send(q, msg_type::kPrepare, payload.view());
      }
    }
  }
  if (leader_ready_) {
    for (const Slot& slot : slots_) {
      const Bytes& value = slot_value(slot.instance);
      for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
        if (q != self_ && (slot.acks & bit(q)) == 0) {
          send_accept(rt, q, slot.instance, value);
        }
      }
    }
    for (const auto& [i, unacked] : decide_unacked_) {
      auto payload = wire::encode_pooled(
          rt.pool(), DecideMsg{i, WireBlob::ref(*decided_value(i))});
      for (ProcessId q : unacked) {
        rt.send(q, msg_type::kDecide, payload.view());
      }
    }
  }
}

void LogConsensus::abdicate() {
  if (leader_ready_ && rt_ != nullptr) {
    obs::Event e;
    e.type = obs::EventType::kEpochEnd;
    e.t = rt_->now();
    e.process = self_;
    e.a = static_cast<std::uint64_t>(my_round_);
    rt_->obs().bus().publish(e);
  }
  // Unfinished proposals go back to the pending queue; they will be
  // forwarded to the new leader (the new leader's Phase 1 may also recover
  // them, in which case byte-identical duplicates are pruned at decision
  // time). A slot is undecided (learn drops it at decide), and its value
  // is my acceptor's pair, which stays: pairs are durable Phase-1 state,
  // so the queue gets a copy. A caller about to overwrite a pair abdicates
  // first (handle_accept).
  for (const Slot& slot : slots_) {
    const Bytes& value = slot_value(slot.instance);
    if (!value.empty()) pending_.push_back(value);
  }
  slots_.clear();
  promise_merge_.clear();
  promises_ = 0;
  decide_unacked_.clear();
  preparing_ = false;
  leader_ready_ = false;
}

void LogConsensus::learn(Runtime& rt, Instance i, BytesView value) {
  if (i < state_.base) return;  // compacted: decided long ago
  if (const Bytes* decided = decided_value(i); decided != nullptr) {
    if (!bytes_equal(*decided, value)) {
      // Agreement tripwire: two different values decided for one instance
      // would falsify Paxos safety; fail loudly.
      throw std::logic_error("consensus agreement violated at instance " +
                             std::to_string(i));
    }
    // No slot can be open here: slots are undecided instances (the
    // decided-slot guards in become_ready and assign_pending).
    return;
  }
  std::optional<Bytes> displaced = state_.decide(i, value);
  if (auto it = find_slot(i); it != slots_.end()) {
    // The instance decided against a different value: another leader won
    // the slot while ours was in flight (e.g. this proposer was partitioned
    // when it assigned the instance). The displaced value, which decide
    // took out of my pair, is still owed placement — re-queue it for a
    // fresh instance. It may end up decided twice if the competing path
    // also carried it; that is the documented at-least-once contract,
    // deduplicated by the replica layer.
    if (displaced.has_value() && !displaced->empty()) {
      pending_.push_back(std::move(*displaced));
    }
    // Close this instance's propose→decide span (proposer side only: the
    // start time exists only where the value was put in flight).
    const Duration span = rt.now() - it->started;
    if (decide_latency_ != nullptr) {
      decide_latency_->record(static_cast<double>(span) /
                              static_cast<double>(kMillisecond));
    }
    obs::Event e;
    e.type = obs::EventType::kSpanEnd;
    e.t = rt.now();
    e.process = self_;
    e.mtype = group_tag();  // shard + 1 inside a multi-group replica, else 0
    e.a = static_cast<std::uint64_t>(span);
    e.b = i;
    e.label = "consensus_instance";
    rt.obs().bus().publish(e);
    slots_.erase(it);
  }
  if (config_.durable) persist(rt);

  // The decided log is the completion signal for pending submissions.
  if (!value.empty()) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (bytes_equal(*it, value)) {
        pending_.erase(it);
        break;
      }
    }
  }

  deliver_decided_prefix(rt);

  // A decision may free a window slot: refill it from the pending queue
  // right away rather than waiting for the next tick. Safe against
  // re-entry — assign_pending never calls learn, and the Phase-1 path
  // (handle_promise) runs with leader_ready_ still false.
  if (leader_ready_ && i_am_omega_leader() && !pending_.empty()) {
    assign_pending(rt);
  }
}

void LogConsensus::on_message(Runtime& rt, ProcessId src, MessageType type,
                              BytesView payload) {
  // Quorums count cluster members only: a frame from outside [0, n) (a
  // client's id, say) must neither vote nor teach a decision, and the ack
  // and promise masks index by src.
  if (src >= static_cast<ProcessId>(n_)) return;
  switch (type) {
    case msg_type::kPrepare:
      handle_prepare(rt, src, PrepareMsg::decode(payload));
      break;
    case msg_type::kPromise:
      handle_promise(rt, src, PromiseMsg::decode(payload));
      break;
    case msg_type::kAccept:
      handle_accept(rt, src, AcceptMsg::decode(payload));
      break;
    case msg_type::kAccepted:
      handle_accepted(rt, src, AcceptedMsg::decode(payload));
      break;
    case msg_type::kNack:
      handle_nack(NackMsg::decode(payload));
      break;
    case msg_type::kDecide:
      handle_decide(rt, src, DecideMsg::decode(payload));
      break;
    case msg_type::kDecideAck:
      handle_decide_ack(src, DecideAckMsg::decode(payload));
      break;
    case msg_type::kForward:
      handle_forward(src, ForwardMsg::decode(payload));
      break;
    default:
      break;
  }
}

void LogConsensus::handle_prepare(Runtime& rt, ProcessId src,
                                  const PrepareMsg& msg) {
  // Fence: while the supporting reply this acceptor last granted is alive,
  // help no other proposer — no promise, no NACK, no state change at all
  // (even updating highest_seen_round_ would leak the competitor into the
  // holder's epoch check). The window is bounded by the lease duration, so
  // a competitor's retransmit loop gets through once it lapses.
  if (fenced_against(src, rt.now())) return;
  // Compaction guard: a candidate whose log frontier is below our compaction
  // watermark is missing decisions whose values this acceptor can no longer
  // report (both the decided entry and the accepted pair are gone below
  // state_.base). Promising anyway would let it treat those slots as holes and
  // no-op-fill instances that were in fact decided — a quorum-invisible
  // agreement violation. Refusing keeps the intersection argument intact:
  // any quorum that does promise has every member's watermark <= msg.from,
  // so everything decided or accepted at >= msg.from is still reportable.
  // The candidate retries each tick and gets through once DECIDE
  // retransmission catches it up (compaction policy must not outrun the
  // slowest live replica — see KvCore::compact_to).
  if (msg.from < state_.base) return;
  highest_seen_round_ = std::max(highest_seen_round_, msg.round);
  Round before = state_.acceptor.promised();
  if (!state_.promise(msg.round)) {
    rt.send(src, msg_type::kNack,
            wire::encode_pooled(rt.pool(),
                                NackMsg{msg.round, state_.acceptor.promised()})
                .view());
    return;
  }
  // The promise is durable state: persist before replying, as a real
  // acceptor must (a reply that outlives the promise breaks safety).
  if (config_.durable && state_.acceptor.promised() != before) persist(rt);
  if (msg.round > my_round_ && (preparing_ || leader_ready_)) abdicate();
  grant_fence(src, msg.round, rt.now());

  // The reply borrows acceptor/log state (stable until this callback
  // returns) and encodes into a pooled frame — no per-entry copies even
  // when the promise carries a long decided suffix.
  PromiseMsg reply;
  reply.round = msg.round;
  reply.echo_ts = msg.ts;
  for (const auto& pair : state_.acceptor.all_accepted()) {
    if (pair.instance < msg.from || is_decided(pair.instance)) continue;
    reply.entries.push_back(PromiseEntry{pair.instance, pair.round, false,
                                         WireBlob::ref(pair.value)});
  }
  for (Instance i = std::max(msg.from, state_.base); i < log_size(); ++i) {
    const Bytes* v = decided_value(i);
    if (v != nullptr) {
      reply.entries.push_back(PromiseEntry{i, kNoRound, true, WireBlob::ref(*v)});
    }
  }
  rt.send(src, msg_type::kPromise,
          wire::encode_pooled(rt.pool(), reply).view());
}

void LogConsensus::handle_promise(Runtime& rt, ProcessId src,
                                  const PromiseMsg& msg) {
  if (!preparing_ || msg.round != my_round_) return;
  record_support(src, msg.echo_ts);
  for (const auto& e : msg.entries) {
    if (e.decided) {
      learn(rt, e.instance, e.value.view());
      continue;
    }
    auto it = promise_merge_.find(e.instance);
    if (it == promise_merge_.end() || e.accepted_round > it->second.round) {
      // promise_merge_ outlives this delivery: materialize the borrow.
      promise_merge_[e.instance] = Acceptor::AcceptedPair{
          e.instance, e.accepted_round, e.value.to_owned()};
    }
  }
  promises_ |= bit(src);
  if (std::popcount(promises_) >= majority()) become_ready(rt);
}

void LogConsensus::handle_accept(Runtime& rt, ProcessId src,
                                 const AcceptMsg& msg) {
  // Same fence discipline as handle_prepare: a fenced acceptor is silent
  // toward everyone but the fence holder.
  if (fenced_against(src, rt.now())) return;
  highest_seen_round_ = std::max(highest_seen_round_, msg.round);
  // Abdicate before the accept: it may overwrite the pair that holds one
  // of my in-flight values, which abdicate() re-queues from the pair. (A
  // proposer's promise is my_round_, so this accept is granted.)
  if (msg.round > my_round_ && (preparing_ || leader_ready_)) abdicate();
  if (!state_.accept(msg.round, msg.instance, msg.value.view())) {
    rt.send(src, msg_type::kNack,
            wire::encode_pooled(rt.pool(),
                                NackMsg{msg.round, state_.acceptor.promised()})
                .view());
    return;
  }
  if (config_.durable) persist(rt);  // accepted pair is durable state
  grant_fence(src, msg.round, rt.now());
  rt.send(src, msg_type::kAccepted,
          wire::encode_pooled(rt.pool(),
                              AcceptedMsg{msg.round, msg.instance, msg.ts})
              .view());

  // Pipelined commit: everything below commit_upto was decided by the
  // leader of this round; our accepted value at this same round for such an
  // instance is therefore the chosen value. learn() drops the pair and
  // moves its buffer into the log, so the view it was given stays valid.
  for (Instance j = first_unknown(); j < msg.commit_upto; ++j) {
    if (is_decided(j)) continue;
    const auto* pair = state_.acceptor.accepted(j);
    if (pair != nullptr && pair->round == msg.round) learn(rt, j, pair->value);
  }
}

void LogConsensus::handle_accepted(Runtime& rt, ProcessId src,
                                   const AcceptedMsg& msg) {
  if (!leader_ready_ || msg.round != my_round_) return;
  // Even an ack for an already-decided instance renews the support — the
  // follower granted (and fenced) it either way.
  record_support(src, msg.echo_ts);
  auto it = find_slot(msg.instance);
  if (it == slots_.end()) return;  // already decided
  it->acks |= bit(src);
  if (std::popcount(it->acks) < majority()) return;

  // learn() drops the slot and moves the pair's bytes into the log.
  learn(rt, msg.instance, slot_value(msg.instance));
  auto& unacked = decide_unacked_[msg.instance];
  auto payload = wire::encode_pooled(
      rt.pool(),
      DecideMsg{msg.instance, WireBlob::ref(*decided_value(msg.instance))});
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q == self_) continue;
    unacked.insert(q);
    rt.send(q, msg_type::kDecide, payload.view());
  }
}

void LogConsensus::handle_nack(const NackMsg& msg) {
  highest_seen_round_ = std::max(highest_seen_round_, msg.promised_round);
  if (msg.rejected_round == my_round_ && (preparing_ || leader_ready_)) {
    // Outpaced by a higher ballot: step back; the next tick re-prepares
    // with a higher ballot if Omega still trusts this process.
    abdicate();
  }
}

void LogConsensus::handle_decide(Runtime& rt, ProcessId src,
                                 const DecideMsg& msg) {
  learn(rt, msg.instance, msg.value.view());
  rt.send(src, msg_type::kDecideAck,
          wire::encode_pooled(rt.pool(), DecideAckMsg{msg.instance}).view());
}

void LogConsensus::handle_decide_ack(ProcessId src, const DecideAckMsg& msg) {
  auto it = decide_unacked_.find(msg.instance);
  if (it == decide_unacked_.end()) return;
  it->second.erase(src);
  if (it->second.empty()) decide_unacked_.erase(it);
}

Instance LogConsensus::compact(Instance upto) {
  // Clamp to what is decided locally and to what is still needed for DECIDE
  // retransmission; never move backwards.
  upto = std::min(upto, next_notify_);
  if (!decide_unacked_.empty()) {
    upto = std::min(upto, decide_unacked_.begin()->first);
  }
  if (upto <= state_.base) return state_.base;
  state_.compact(upto);
  // The state just shrank, so this is the cheapest moment to checkpoint it
  // (it also carries any journaled changes not yet written).
  if (config_.durable && rt_ != nullptr) checkpoint(durable_storage(*rt_));
  return state_.base;
}

// ---------------------------------------------------------------------------
// Leader lease (DESIGN.md §14).
// ---------------------------------------------------------------------------

bool LogConsensus::lease_valid() const {
  if (!config_.lease.enabled || rt_ == nullptr) return false;
  if (!leader_ready_ || !i_am_omega_leader()) return false;
  const TimePoint now = rt_->now();
  // Fast-invalidation hint from the oracle, when it grants one: an expired
  // omega lease means our heartbeats stopped proving liveness; stop serving
  // local reads even if quorum supports have residual time.
  if (auto hint = omega_->lease_until(); hint.has_value() && *hint <= now) {
    return false;
  }
  if (config_.lease.unsafe_skip_fence) {
    // Sabotage self-test: bare self-belief stands in for the quorum lease.
    // Unsound by construction — the lease_test campaign proves the
    // linearizability checker catches what this serves.
    return true;
  }
  // Epoch fence: any observed higher round means a competitor got through a
  // quorum we thought was fenced; abdication is imminent — never serve a
  // read in the gap. (Belt to the supporters check's braces.)
  if (highest_seen_round_ > my_round_) return false;
  // Freshness gate: until the epoch-start prefix is fully learned, local
  // state may miss writes a predecessor decided.
  if (next_notify_ < ready_watermark_) return false;
  return lease_supporters() >= majority();
}

int LogConsensus::lease_supporters() const {
  if (rt_ == nullptr || !leader_ready_) return 0;
  const TimePoint now = rt_->now();
  // Self counts unconditionally: our own acceptor helping a competitor
  // abdicates us synchronously, which is a stronger guarantee than any
  // timed fence.
  int supporters = 1;
  for (std::size_t q = 0; q < support_until_.size(); ++q) {
    if (static_cast<ProcessId>(q) == self_) continue;
    if (support_until_[q] > now + config_.lease.clock_margin) ++supporters;
  }
  return supporters;
}

void LogConsensus::grant_fence(ProcessId src, Round round, TimePoint now) {
  if (!config_.lease.enabled) return;
  fence_holder_ = src;
  fence_round_ = round;
  fence_until_ = now + config_.lease.duration;
}

void LogConsensus::record_support(ProcessId q, TimePoint echo_ts) {
  if (!config_.lease.enabled) return;
  if (static_cast<std::size_t>(q) >= support_until_.size()) return;
  // echo_ts is OUR clock at the original send — earlier in real time than
  // the follower's fence anchor, so echo_ts + duration is a conservative
  // bound on that fence's expiry. max(): a stale echo never shortens.
  support_until_[q] =
      std::max(support_until_[q], echo_ts + config_.lease.duration);
}

void LogConsensus::deliver_decided_prefix(Runtime& rt) {
  while (next_notify_ < log_size() && decided_value(next_notify_) != nullptr) {
    const Instance i = next_notify_++;
    const Bytes& value = *decided_value(i);
    notify_decision(rt, i, value, group_tag());
    if (sink_) sink_(i, value);
  }
}

void LogConsensus::sample_lease_span(Runtime& rt) {
  const bool valid = lease_valid();
  if (valid && !lease_was_valid_) {
    lease_span_start_ = rt.now();
  } else if (!valid && lease_was_valid_) {
    obs::Event e;
    e.type = obs::EventType::kSpanEnd;
    e.t = rt.now();
    e.process = self_;
    e.mtype = group_tag();
    e.a = static_cast<std::uint64_t>(rt.now() - lease_span_start_);
    e.b = static_cast<std::uint64_t>(my_round_);
    e.label = "lease_held";
    rt.obs().bus().publish(e);
  }
  lease_was_valid_ = valid;
}

void LogConsensus::handle_forward(ProcessId, const ForwardMsg& msg) {
  // Deduplicate against everything already seen: queued, in flight, decided.
  if (queued_or_in_flight(msg.value.view())) return;
  for (const auto& slot : state_.log) {
    if (slot.has_value() && *slot == msg.value) return;
  }
  // (Values compacted away cannot be matched any more; the origin's retry
  // loop stops as soon as it observes the decision, which by the compaction
  // contract it already has.)
  pending_.push_back(msg.value.to_owned());
  // Eager dispatch: a ready leader starts Phase 2 for the new value now.
  if (rt_ != nullptr && leader_ready_ && i_am_omega_leader()) {
    assign_pending(*rt_);
  }
}

}  // namespace lls
