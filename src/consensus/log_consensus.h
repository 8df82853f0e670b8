// LogConsensus: communication-efficient, Omega-driven consensus on a log.
//
// Reconstruction of the consensus side of Aguilera et al. (PODC 2004): with
// a majority of correct processes and the CE-Omega leader oracle, consensus
// is solvable in system S, and communication-efficiently — after
// stabilization every instance is driven entirely by the one elected leader
// (Θ(n) messages, two message delays with pipelining), and followers send
// only direct replies to it. See DESIGN.md §4.
//
// Shape: multi-Paxos hardened for fair-lossy links.
//  * Only the process currently trusted by Omega acts as proposer; it runs
//    Phase 1 (PREPARE/PROMISE) once per leadership epoch and then drives
//    every instance with Phase 2 only.
//  * All leader messages are retransmitted on a timer until the required
//    acks arrive — over fair-lossy links, retried messages eventually get
//    through. Followers never retransmit spontaneously; they only answer
//    the leader (preserving the communication-efficiency discipline) and
//    re-forward their own pending proposals to the current leader.
//  * Liveness needs Omega stabilization plus a correct majority; safety
//    (agreement, validity, integrity) holds unconditionally and is enforced
//    by the Acceptor rules, including before GST and with no ♦-source.
//
// Duplicates: a value may be decided in more than one instance across leader
// changes (at-least-once submission); the RSM layer deduplicates by command
// id. An empty value is a no-op used to fill gaps discovered in Phase 1.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "consensus/paxos.h"

namespace lls {

struct LogConsensusConfig {
  /// Retransmission / leadership-poll period.
  Duration retry_period = 20 * kMillisecond;

  /// Crash-recovery extension: keep the acceptor state and the decided log
  /// in Runtime::storage() and restore them on (re)start, so Paxos safety
  /// survives crash/recovery cycles (the classical durable-acceptor
  /// discipline); requires a runtime that provides storage (the
  /// simulator's crash-recovery mode). A change is durable before anything
  /// that depends on it leaves the process: a promise before its PROMISE,
  /// and the leader's own promise before its PREPARE (a ballot must never be
  /// reused after a crash); an accepted pair before its ACCEPTED; a decision
  /// before it is delivered or announced; a compaction before it returns.
  /// The leader's own accepts are only journaled, and become durable with
  /// the next write, at the latest the one of the decision that counts
  /// them. That is safe: a self-accept lost to a crash looks like an ACCEPT
  /// that never reached this acceptor, and no process can learn the value
  /// before the leader's learn has persisted it. Each write is one journal
  /// record of the changes since the last (DESIGN.md §7); the decision sink
  /// re-fires for the restored prefix on recovery, letting the application
  /// rebuild its state machine.
  bool durable = false;

  /// Shard index when this engine is one of M > 1 groups inside a replica
  /// container (see rsm/replica.h): tags kDecide and consensus-span events
  /// with shard + 1 in Event::mtype, suffixes the decide-latency histogram
  /// name with "_shard<g>" and the durable-state storage key with the same
  /// tag, so co-located logs stay distinguishable. -1 (default) = the only
  /// log of its process; events carry tag 0, and the histogram and storage
  /// key keep their un-suffixed names.
  int shard = -1;

  /// Proposer pipelining window (>= 1): maximum undecided instances this
  /// leader keeps in flight at once. Fresh pending values beyond it wait in
  /// the queue until a decision frees a slot; Phase-1 merge re-proposals
  /// are owed immediately for safety, so they may exceed it. The default is
  /// far above the 128 in flight that any campaign or benchmark run reaches.
  std::size_t max_inflight = 1024;

  /// Leader lease: a quorum-anchored window during which lease_valid() may
  /// return true at the leader, certifying that no other proposer can have
  /// assembled a majority — so a local read is linearizable with zero
  /// messages. Mechanism (DESIGN.md §14): every supporting PROMISE/ACCEPTED
  /// a follower grants also fences that follower to the grantee for
  /// `duration` (it silently drops PREPARE/ACCEPT from anyone else while
  /// fenced), and echoes back the proposer's own send timestamp; the
  /// proposer counts a support as live until echo_ts + duration. Because
  /// echo_ts predates the follower's fence anchor in real time, the
  /// proposer's view is conservative; only relative clock *rates* matter,
  /// absorbed by `clock_margin`.
  struct LeaseConfig {
    /// Master switch. Off (default) = wire-compatible no-op: timestamps are
    /// stamped/echoed but fences are never honored and lease_valid() is
    /// always false.
    bool enabled = false;

    /// The lease window W: follower fence lifetime and support lifetime.
    /// Must comfortably exceed the retry period (supports renew via the
    /// ordinary ACCEPT/ACCEPTED traffic; a window shorter than one
    /// round-trip can never stay valid).
    Duration duration = 200 * kMillisecond;

    /// Safety margin subtracted from every support expiry before trusting
    /// it, covering relative clock drift over one window (>= 2 * drift_rate
    /// * duration). 0 is correct in the simulator (one global clock); the
    /// UDP runtime should set a few milliseconds.
    Duration clock_margin = 0;

    /// SABOTAGE SELF-TEST ONLY: skip the fence/quorum machinery and treat
    /// bare Omega self-belief as a lease. Deliberately unsound — exists so
    /// the linearizability checker can demonstrate it catches the stale
    /// read a broken lease serves. Never enable outside the sabotage
    /// campaign.
    bool unsafe_skip_fence = false;
  };
  LeaseConfig lease;
};

/// One change to LogState, as a durable engine journals it (see
/// LogState::journal). kPromise uses `round`; kAccept uses all three;
/// kDecide uses `instance` and `value`.
struct LogChange {
  enum class Kind : std::uint8_t { kPromise = 0, kAccept = 1, kDecide = 2 };
  Kind kind = Kind::kPromise;
  Round round = kNoRound;
  Instance instance = 0;
  WireBlob value;

  LLS_WIRE_FIELDS(LogChange, kind, round, instance, value)
};

/// The engine's acceptor and learner state. Its field list is also the
/// checkpoint format a crash-recovery engine stores (LogCheckpoint). Every
/// change goes through the mutators below, which the live engine and the
/// journal replay share. The acceptor holds pairs for undecided instances
/// only: a decided value supersedes any pair in Phase 1, so each decided
/// value is held once, in `log`.
struct LogState {
  Acceptor acceptor;
  Instance base = 0;                      ///< compaction watermark
  std::vector<std::optional<Bytes>> log;  ///< decided values, offset by base

  /// When set, each promise/accept/decide appends its LogChange here
  /// (wire::append). Null on a volatile engine and during replay.
  Bytes* journal = nullptr;

  /// True when instance i is decided (compacted instances included).
  [[nodiscard]] bool decided(Instance i) const {
    return i < base || (i - base < log.size() && log[i - base].has_value());
  }

  /// Acceptor::on_prepare; journals a raised promise.
  bool promise(Round round);
  /// Acceptor::on_accept; journals a granted accept. For a decided
  /// instance it only raises the promise and leaves no pair.
  bool accept(Round round, Instance i, BytesView value);
  /// Same, taking ownership of `value`: a granted accept moves it into the
  /// pair instead of copying it (the leader's own proposals).
  bool accept(Round round, Instance i, Bytes&& value);
  /// Records the decision of an undecided instance i >= base, and drops
  /// its accepted pair: the pair's bytes become the log entry when they
  /// are the decided value, so a `value` view into them stays valid.
  /// Returns the pair's bytes when they are another value (a proposal the
  /// decision displaced), else nullopt.
  std::optional<Bytes> decide(Instance i, BytesView value);
  /// Drops decided entries and accepted pairs below `upto` (> base). Not
  /// journaled: compaction writes a checkpoint instead.
  void compact(Instance upto);
  /// Replays one journaled change.
  void apply(const LogChange& change);

  LLS_WIRE_FIELDS(LogState, wire::framed(acceptor), base, log)

 private:
  void record(LogChange::Kind kind, Round round, Instance i, BytesView value);
};

/// One durable journal record: the changes made since the previous record
/// or checkpoint, tagged with its sequence number. Record `seq` lives in
/// ring slot seq % LogConsensus::kJournalSlots.
struct LogRecord {
  std::uint64_t seq = 0;
  WireBlob changes;  ///< back-to-back LogChange encodings

  LLS_WIRE_FIELDS(LogRecord, seq, changes)
};

/// The durable checkpoint: a whole LogState, plus the first journal
/// sequence number it does not cover (replay starts there).
struct LogCheckpoint {
  std::uint64_t next_seq = 0;
  WireBlob state;  ///< the LogState encoding

  LLS_WIRE_FIELDS(LogCheckpoint, next_seq, state)
};

class LogConsensus final : public ConsensusActor {
 public:
  /// The application's decision path: called once per instance, in instance
  /// order, when its decision becomes known locally — including the durable
  /// prefix replayed from within on_start. `value` is only valid during the
  /// call (empty = a no-op filler).
  using DecisionSink = std::function<void(Instance i, BytesView value)>;

  /// `omega` supplies the leader oracle; not owned, must outlive this actor
  /// (typically both live in one replica container on the same process).
  /// `sink` (optional) receives every decision; the kDecide bus event is
  /// published first either way, as a passive tap.
  LogConsensus(LogConsensusConfig config, const OmegaActor* omega,
               DecisionSink sink = nullptr);

  /// Slots in the durable journal ring: record seq lives in slot
  /// seq % kJournalSlots, and a checkpoint replaces any write that would
  /// overwrite a record it does not cover.
  static constexpr std::uint64_t kJournalSlots = 1024;

  // Actor ------------------------------------------------------------------
  void on_start(Runtime& rt) override;
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override;
  void on_timer(Runtime& rt, TimerId timer) override;

  // ConsensusActor ---------------------------------------------------------
  void propose(Bytes value) override;
  [[nodiscard]] std::optional<Bytes> decision(Instance i) const override;
  [[nodiscard]] Instance first_unknown() const override { return next_notify_; }

  // Log compaction -----------------------------------------------------------
  /// Discards decided entries below `upto` (and the matching acceptor
  /// state), bounding memory. Contract: the application must know that every
  /// correct process has already learned/applied the prefix (e.g. via an
  /// application-level checkpoint) — compacted values can no longer be
  /// served to laggards. Requests are clamped to first_unknown() and to the
  /// lowest instance still awaiting DECIDE acks; returns the watermark
  /// actually applied.
  Instance compact(Instance upto);

  [[nodiscard]] Instance compacted_upto() const { return state_.base; }

  // Leader lease ------------------------------------------------------------
  /// True iff this process may serve a linearizable read from local state
  /// right now, with zero messages: it is the ready leader, a majority of
  /// fence promises (its own included) is provably unexpired after the
  /// clock margin, no higher round has been observed, and the decided
  /// prefix as of this epoch's start has been fully delivered. Re-check
  /// before *every* read — validity is a property of an instant.
  [[nodiscard]] bool lease_valid() const;

  /// Supports counted live by lease_valid()'s quorum rule at this instant
  /// (including self when ready). For tests and gauges.
  [[nodiscard]] int lease_supporters() const;

  // Introspection ----------------------------------------------------------
  /// This log's group tag: 0 for the only log of its process, shard + 1
  /// inside a multi-group container. Carried in Event::mtype and in the
  /// durable storage keys of the log and of its application.
  [[nodiscard]] std::uint16_t group_tag() const {
    return config_.shard < 0 ? 0
                             : static_cast<std::uint16_t>(config_.shard + 1);
  }
  [[nodiscard]] bool is_leader_ready() const { return leader_ready_; }
  [[nodiscard]] Round current_round() const { return my_round_; }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] Instance log_size() const {
    return state_.base + state_.log.size();
  }
  [[nodiscard]] std::size_t log_entries_held() const {
    return state_.log.size();
  }
  [[nodiscard]] const Acceptor& acceptor() const { return state_.acceptor; }
  [[nodiscard]] const LogState& log_state() const { return state_; }
  [[nodiscard]] ProcessId fence_holder() const { return fence_holder_; }
  [[nodiscard]] TimePoint fence_until() const { return fence_until_; }
  [[nodiscard]] std::uint64_t proposals() const { return proposals_; }
  /// propose() calls dropped as byte-identical to a queued/in-flight value.
  [[nodiscard]] std::uint64_t dup_proposals_suppressed() const {
    return dup_proposals_suppressed_;
  }

 private:
  // Leader-side driving, called on every tick and relevant state change.
  void drive(Runtime& rt);
  void start_prepare(Runtime& rt);
  void become_ready(Runtime& rt);
  void assign_pending(Runtime& rt);
  /// Puts `value` in flight at instance i under my round: moves it into the
  /// self-accepted pair, opens a slot, then sends ACCEPT to every peer.
  void start_instance(Runtime& rt, Instance i, Bytes value);
  void send_accept(Runtime& rt, ProcessId dst, Instance i, BytesView value);
  void retransmit(Runtime& rt);
  void abdicate();

  // Durability (crash-recovery extension). persist() makes state_ durable:
  // it writes the journaled changes as the next ring record, or a
  // checkpoint when the ring is full. restore() loads the checkpoint and
  // replays the ring records that follow it.
  void persist(Runtime& rt);
  void checkpoint(StableStorage& storage);
  void restore(Runtime& rt);
  [[nodiscard]] StableStorage& durable_storage(Runtime& rt) const;
  /// Storage key of the ring slot that holds record `seq`.
  [[nodiscard]] const std::string& journal_key(std::uint64_t seq);

  // Learner-side. The decided log is stored with a compaction offset:
  // absolute instance i lives at state_.log[i - state_.base]; everything
  // below state_.base is decided-and-discarded.
  /// `value` may borrow a receive buffer or the acceptor's pair; the
  /// decided log keeps the pair's bytes when they are the decided value,
  /// and copies `value` only otherwise.
  void learn(Runtime& rt, Instance i, BytesView value);
  [[nodiscard]] bool is_decided(Instance i) const { return state_.decided(i); }
  [[nodiscard]] const Bytes* decided_value(Instance i) const {
    if (i < state_.base) return nullptr;  // compacted away
    Instance rel = i - state_.base;
    if (rel < state_.log.size() && state_.log[rel].has_value()) {
      return &*state_.log[rel];
    }
    return nullptr;
  }
  /// True when a byte-identical value is already queued or in flight.
  [[nodiscard]] bool queued_or_in_flight(BytesView value) const;

  void handle_prepare(Runtime& rt, ProcessId src, const PrepareMsg& msg);
  void handle_promise(Runtime& rt, ProcessId src, const PromiseMsg& msg);
  void handle_accept(Runtime& rt, ProcessId src, const AcceptMsg& msg);
  void handle_accepted(Runtime& rt, ProcessId src, const AcceptedMsg& msg);
  void handle_nack(const NackMsg& msg);
  void handle_decide(Runtime& rt, ProcessId src, const DecideMsg& msg);
  void handle_decide_ack(ProcessId src, const DecideAckMsg& msg);
  void handle_forward(ProcessId src, const ForwardMsg& msg);

  [[nodiscard]] int majority() const { return n_ / 2 + 1; }
  [[nodiscard]] bool i_am_omega_leader() const {
    return omega_->leader() == self_;
  }

  // Lease internals ---------------------------------------------------------
  /// Fences are only honored when leases are on and not sabotaged.
  [[nodiscard]] bool fence_enforced() const {
    return config_.lease.enabled && !config_.lease.unsafe_skip_fence;
  }
  /// True when an unexpired fence blocks proposer traffic from `src`.
  /// fence_holder_ == kNoProcess with an unexpired window means fence-all
  /// (post-recovery conservatism: the promises we forgot could belong to
  /// anyone).
  [[nodiscard]] bool fenced_against(ProcessId src, TimePoint now) const {
    if (!fence_enforced() || now >= fence_until_) return false;
    return fence_holder_ == kNoProcess || src != fence_holder_;
  }
  /// Grants/renews the fence to `src` after a supporting reply.
  void grant_fence(ProcessId src, Round round, TimePoint now);
  /// Records a support echo from `q` (PROMISE or ACCEPTED for my round).
  void record_support(ProcessId q, TimePoint echo_ts);
  /// Publishes lease-held spans on validity transitions (called per tick).
  void sample_lease_span(Runtime& rt);
  /// Delivers every decision from next_notify_ up to the first gap:
  /// publishes the kDecide tap, then hands the decision to the sink.
  void deliver_decided_prefix(Runtime& rt);
  /// True when the pipelining window has room for a fresh assignment.
  [[nodiscard]] bool window_open() const {
    return slots_.size() < config_.max_inflight;
  }

  /// One instance this leadership has in flight. Its value is not held
  /// here: it is the acceptor's pair for `instance` at my_round_, which
  /// start_instance moved it into and which stays until learn() decides
  /// the instance or an abdication drops the slot.
  struct Slot {
    Instance instance = 0;
    std::uint64_t acks = 0;  ///< bit q: q accepted it (self included)
    TimePoint started = 0;   ///< opens the propose→decide span
  };
  [[nodiscard]] std::vector<Slot>::iterator find_slot(Instance i);
  /// The in-flight value of slot instance i (the acceptor's pair).
  [[nodiscard]] const Bytes& slot_value(Instance i) const {
    return state_.acceptor.accepted(i)->value;
  }
  /// Process q's bit in an ack or promise mask (q < n <= 64).
  [[nodiscard]] static std::uint64_t bit(ProcessId q) {
    return std::uint64_t{1} << q;
  }

  LogConsensusConfig config_;
  const OmegaActor* omega_;
  DecisionSink sink_;
  /// Storage key of the durable checkpoint (per group, see
  /// LogConsensusConfig); the journal ring's keys extend it.
  std::string durable_key_;

  ProcessId self_ = kNoProcess;
  int n_ = 0;
  TimerId tick_timer_ = kInvalidTimer;
  /// Captured at on_start so externally-invoked propose() can drive the
  /// protocol eagerly instead of waiting for the next tick.
  Runtime* rt_ = nullptr;

  // Acceptor / learner state (durable when config_.durable).
  LogState state_;
  Instance next_notify_ = 0;

  // Durable journal: the changes since the last write (state_.journal
  // points here), the next record's sequence number, the first one the
  // stored checkpoint does not cover, and a reused ring-key buffer.
  Bytes journal_;
  std::uint64_t journal_seq_ = 0;
  std::uint64_t checkpoint_seq_ = 0;
  std::string journal_key_;

  // Proposer state (meaningful only while Omega trusts this process).
  Round my_round_ = kNoRound;
  Round highest_seen_round_ = kNoRound;
  bool preparing_ = false;
  bool leader_ready_ = false;
  std::uint64_t promises_ = 0;  ///< bit q: q promised my_round_
  std::map<Instance, Acceptor::AcceptedPair> promise_merge_;
  Instance prepare_from_ = 0;

  /// This leadership's in-flight instances, sorted by instance.
  std::vector<Slot> slots_;
  Instance next_free_ = 0;

  /// Decided instances whose explicit DECIDE has not been acked by everyone
  /// yet (leader keeps retransmitting; only the leader sends these).
  std::map<Instance, std::set<ProcessId>> decide_unacked_;

  /// Values submitted here (locally or forwarded) and not yet observed in
  /// the decided log. Re-forwarded to the current leader on every tick.
  std::deque<Bytes> pending_;

  std::uint64_t proposals_ = 0;
  std::uint64_t dup_proposals_suppressed_ = 0;

  // Lease state -------------------------------------------------------------
  // Acceptor side: who this process last granted a supporting reply to, at
  // which round, and until when that grant fences out other proposers.
  ProcessId fence_holder_ = kNoProcess;
  Round fence_round_ = kNoRound;
  TimePoint fence_until_ = 0;
  // Proposer side: per-process conservative support expiry (own send clock
  // echoed back + window), and the epoch-start frontier that must be fully
  // learned before local reads are fresh.
  std::vector<TimePoint> support_until_;
  Instance ready_watermark_ = 0;
  // Span bookkeeping for the lease-held observability spans.
  bool lease_was_valid_ = false;
  TimePoint lease_span_start_ = 0;

  // Observability (per-instance consensus spans). The histogram handle is
  // resolved once at on_start; learn() records the propose→decide latency
  // of a slot it decides (Slot::started), so a span covers one leadership.
  obs::Histogram* decide_latency_ = nullptr;
};

}  // namespace lls
