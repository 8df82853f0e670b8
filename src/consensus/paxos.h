// Paxos wire messages and acceptor-side state for the multi-instance log
// engine (log_consensus.h). Kept separate so the codecs and invariants are
// unit-testable without the full actor.
//
// Ballot (round) discipline: process p uses ballots p, p+n, p+2n, …, so
// ballot sets are disjoint across processes and totally ordered. An acceptor
// maintains one global promise and per-instance accepted (round, value)
// pairs, as in classic multi-Paxos. The log engine keeps pairs only for
// undecided instances (LogState::decide hands a pair's bytes to the log).
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "common/blob.h"
#include "consensus/consensus.h"
#include "net/wire.h"

namespace lls {

/// Smallest ballot owned by `owner` that is strictly greater than `bound`.
[[nodiscard]] constexpr Round next_ballot(ProcessId owner, int n, Round bound) {
  Round r = static_cast<Round>(owner);
  while (r <= bound) r += n;
  return r;
}

// ---------------------------------------------------------------------------
// Wire messages (layouts declared once via LLS_WIRE_FIELDS; see net/wire.h).
//
// Leader leases ride the existing Phase-1/Phase-2 exchange instead of a new
// message class: the proposer stamps PREPARE/ACCEPT with `ts` (its own clock
// at send time) and a supporting reply echoes it back verbatim as `echo_ts`.
// Because the echo is the *proposer's* clock at the original send — which is
// strictly earlier in real time than the follower's fence anchor (set at
// receive) — the proposer's lease window [echo_ts, echo_ts + W) is a
// conservative subset of the follower's fence window, with no cross-clock
// comparison anywhere. See DESIGN.md §14.
// ---------------------------------------------------------------------------

struct PrepareMsg {
  Round round = kNoRound;
  /// The new leader asks for acceptor state from this instance upward.
  Instance from = 0;
  /// Proposer clock at send; echoed by PromiseMsg for lease accounting.
  TimePoint ts = 0;

  LLS_WIRE_FIELDS(PrepareMsg, round, from, ts)
};

// Value-carrying fields are WireBlob: encoding borrows the sender's buffer
// (no copy into the message struct), and decoding borrows the receive
// buffer (no copy out). Handlers that retain a decoded value past the
// delivery callback must call .to_owned(); see common/blob.h.

struct PromiseEntry {
  Instance instance = 0;
  Round accepted_round = kNoRound;
  bool decided = false;
  WireBlob value;

  LLS_WIRE_FIELDS(PromiseEntry, instance, accepted_round, decided, value)
};

struct PromiseMsg {
  Round round = kNoRound;
  std::vector<PromiseEntry> entries;
  /// PrepareMsg::ts echoed back (support anchor for the proposer's lease).
  TimePoint echo_ts = 0;

  LLS_WIRE_FIELDS(PromiseMsg, round, entries, echo_ts)
};

struct AcceptMsg {
  Round round = kNoRound;
  Instance instance = 0;
  /// Everything below this instance is decided at the leader — lets
  /// followers commit pipelined instances without waiting for DECIDE.
  Instance commit_upto = 0;
  WireBlob value;
  /// Proposer clock at send; echoed by AcceptedMsg for lease accounting.
  TimePoint ts = 0;

  LLS_WIRE_FIELDS(AcceptMsg, round, instance, commit_upto, value, ts)
};

struct AcceptedMsg {
  Round round = kNoRound;
  Instance instance = 0;
  /// AcceptMsg::ts echoed back (support anchor for the proposer's lease).
  TimePoint echo_ts = 0;

  LLS_WIRE_FIELDS(AcceptedMsg, round, instance, echo_ts)
};

struct NackMsg {
  Round rejected_round = kNoRound;
  Round promised_round = kNoRound;

  LLS_WIRE_FIELDS(NackMsg, rejected_round, promised_round)
};

struct DecideMsg {
  Instance instance = 0;
  WireBlob value;

  LLS_WIRE_FIELDS(DecideMsg, instance, value)
};

struct DecideAckMsg {
  Instance instance = 0;

  LLS_WIRE_FIELDS(DecideAckMsg, instance)
};

struct ForwardMsg {
  WireBlob value;

  LLS_WIRE_FIELDS(ForwardMsg, value)
};

// ---------------------------------------------------------------------------
// Acceptor state.
// ---------------------------------------------------------------------------

/// The acceptor half of multi-Paxos: one global promise, per-instance
/// accepted pairs. Pure state machine — no I/O — so its safety rules are
/// directly unit-testable. Its whole state is durable (crash recovery
/// checkpoints it inside LogConsensus's LogState), so its field list is
/// its storage format.
class Acceptor {
 public:
  struct AcceptedPair {
    Instance instance = 0;
    Round round = kNoRound;
    Bytes value;

    LLS_WIRE_FIELDS(AcceptedPair, instance, round, value)
  };

  /// Handles a prepare; returns true (promise granted) when round >= the
  /// current promise, after raising the promise.
  bool on_prepare(Round round) {
    if (round < promised_) return false;
    promised_ = round;
    return true;
  }

  /// Handles an accept; returns true when granted (round >= promise).
  /// The value view may borrow a receive buffer — the acceptor copies it
  /// into owned state here, at the single point where retention happens.
  bool on_accept(Round round, Instance instance, BytesView value) {
    if (round < promised_) return false;
    return on_accept(round, instance, Bytes(value.begin(), value.end()));
  }

  /// Same, taking ownership of `value`: a granted accept moves it into the
  /// pair (the leader's own proposal needs no copy).
  bool on_accept(Round round, Instance instance, Bytes&& value) {
    if (round < promised_) return false;
    promised_ = round;
    auto it = std::lower_bound(accepted_.begin(), accepted_.end(), instance,
                               before);
    if (it != accepted_.end() && it->instance == instance) {
      it->round = round;
      it->value = std::move(value);
    } else {
      accepted_.insert(it, AcceptedPair{instance, round, std::move(value)});
    }
    return true;
  }

  [[nodiscard]] Round promised() const { return promised_; }

  [[nodiscard]] const AcceptedPair* accepted(Instance i) const {
    auto it = std::lower_bound(accepted_.begin(), accepted_.end(), i, before);
    return it != accepted_.end() && it->instance == i ? &*it : nullptr;
  }

  /// Accepted pairs in instance order.
  [[nodiscard]] const std::vector<AcceptedPair>& all_accepted() const {
    return accepted_;
  }

  /// Drops the pair of a decided instance and hands over its value, so the
  /// decided log can keep these very bytes (nullopt when none is held).
  /// Moving a Bytes keeps its buffer, so a view into the value stays valid.
  std::optional<Bytes> take(Instance i) {
    auto it = std::lower_bound(accepted_.begin(), accepted_.end(), i, before);
    if (it == accepted_.end() || it->instance != i) return std::nullopt;
    std::optional<Bytes> value(std::move(it->value));
    accepted_.erase(it);
    return value;
  }

  /// Frees acceptor state at and below a decided prefix (log compaction).
  void forget_upto(Instance i) {
    accepted_.erase(accepted_.begin(), std::lower_bound(accepted_.begin(),
                                                        accepted_.end(), i,
                                                        before));
  }

  LLS_WIRE_FIELDS(Acceptor, promised_, accepted_)

 private:
  static bool before(const AcceptedPair& p, Instance i) {
    return p.instance < i;
  }

  Round promised_ = kNoRound;
  std::vector<AcceptedPair> accepted_;  ///< sorted by instance
};

}  // namespace lls
