// ClusterClient: the request-routing front end of the replicated store.
//
// One ClusterClient is an Actor hosted at a process id >= the replica
// cluster size, sharing the network fabric (and therefore the link model,
// the fault injection and the tracing) with the replicas. It implements the
// client side of the 0x03xx protocol in net/message.h:
//
//  * leader discovery — requests go to the currently believed leader; a
//    NOT_LEADER redirect (carrying the replica's Omega output as a hint)
//    retargets immediately, and repeated silence rotates through the
//    replicas, so a leader crash is survived without configuration;
//  * retries — every in-flight request is retransmitted with jittered
//    exponential backoff until its reply arrives (or its optional deadline
//    expires), which over fair-lossy links gives at-least-once submission;
//  * exactly-once — sequence numbers come from ClientSession and ride the
//    replica layer's (origin, seq) dedup, so retries never double-apply,
//    and replicas cache results to re-answer retried-but-already-applied
//    requests (EXPIRED when the cached result is gone); each command
//    carries the session's ack watermark, stamped at its first send;
//  * flow control — seqs are sent only within `window` of the ack
//    watermark, so at most `window` requests are in flight; BUSY replies
//    (admission queue over the leader's high-water mark) push the client
//    into backoff without burning a retry against a healthy leader;
//  * coalescing — sends are deferred to a zero-delay flush and packed per
//    destination into kClientRequestBatch messages of at most
//    kMaxFramePayload bytes, so a burst of submissions (or retries) costs
//    one network message and — on the leader — one consensus proposal
//    instead of one per command (the unbatched hot path's first fix;
//    measured by bench_a5_batching);
//  * sharding — against replicas hosting M > 1 groups (rsm/replica.h), keys
//    are routed through a per-shard leader cache: redirects carry
//    {shard, leader} and update only that shard's entry, so one confused
//    group does not retarget the whole session.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "client/session.h"
#include "common/actor.h"
#include "net/message.h"
#include "rsm/command.h"
#include "shard/shard_map.h"

namespace lls {

struct ClusterClientConfig {
  /// Replicas occupy process ids [0, cluster_n); required.
  int cluster_n = 0;

  /// Maximum seq span in flight: a request is sent only while its seq is
  /// at most `window` above the session's ack watermark, so at most
  /// `window` requests are in flight and each replica holds at most
  /// `window` results and dedup seqs for the session. Further submissions
  /// queue locally.
  std::size_t window = 8;

  /// How long one attempt waits for a reply before retransmitting.
  Duration attempt_timeout = 120 * kMillisecond;

  /// Cap of the exponential backoff added on top of attempt_timeout after
  /// each failed attempt (doubled per retry from 10 ms, uniform jitter of up
  /// to half of itself).
  Duration backoff_max = 640 * kMillisecond;

  /// End-to-end deadline per request; 0 disables (retry forever). A request
  /// past its deadline completes locally with timed_out = true — note the
  /// cluster may still apply it (the submission cannot be recalled).
  Duration request_deadline = 0;

  /// Shard count of the target cluster (groups per replica). Must match the
  /// replicas' ShardMap: the client hashes each key itself to pick the
  /// per-shard leader cache entry to route through.
  int shards = 1;

  /// Pack same-destination sends into one kClientRequestBatch message.
  /// Sends are deferred to a zero-delay timer, so requests submitted (or
  /// due for retry) in the same execution turn share a message; off
  /// reproduces the historical one-message-per-attempt path.
  bool coalesce = true;

  /// Mark get() commands read-only on the wire, letting a leader holding a
  /// valid lease answer them from local state (zero consensus instances).
  /// Linearizability is unaffected either way — with this off (or when the
  /// lease doesn't hold) reads take the ordered path.
  bool lease_reads = false;
};

/// Final outcome of one submitted command, delivered to the submit callback.
struct ClientCompletion {
  Command cmd;
  bool timed_out = false;  ///< deadline expired before a reply arrived
  /// The cluster answered EXPIRED: the command was applied once, but its
  /// result was evicted before a retry reached the log.
  bool expired = false;
  KvResult result;         ///< meaningful when has_result()
  TimePoint invoked = 0;
  TimePoint completed = 0;
  int attempts = 0;

  [[nodiscard]] bool has_result() const { return !timed_out && !expired; }
};

class ClusterClient final : public Actor {
 public:
  using Callback = std::function<void(const ClientCompletion&)>;

  explicit ClusterClient(ClusterClientConfig config) : config_(config) {}

  // Actor --------------------------------------------------------------------
  void on_start(Runtime& rt) override;
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override;
  void on_timer(Runtime& rt, TimerId timer) override;

  // Client surface -----------------------------------------------------------
  /// Submits one command; `cb` (optional) fires exactly once on completion
  /// (reply or deadline). Returns the session sequence number. Must be
  /// called after on_start, from the client's execution context.
  std::uint64_t submit(KvOp op, std::string key, std::string value = "",
                       std::string expected = "", Callback cb = nullptr);

  /// Read-path API: submits a kGet, marked read-only when
  /// config.lease_reads is set so the leaseholder may serve it locally.
  /// Retry/redirect/deadline semantics are identical to submit().
  std::uint64_t get(std::string key, Callback cb = nullptr);

  // Introspection ------------------------------------------------------------
  [[nodiscard]] const ClientSession& session() const { return session_; }
  /// Believed leader for shard 0 (the only shard when M = 1).
  [[nodiscard]] ProcessId target() const { return shard_target_[0]; }
  /// Believed leader for one shard's group.
  [[nodiscard]] ProcessId target(ShardId shard) const {
    return shard_target_[shard];
  }
  [[nodiscard]] const ShardMap& shard_map() const { return map_; }
  [[nodiscard]] std::size_t inflight() const { return inflight_.size(); }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t acked() const { return acked_; }
  [[nodiscard]] std::uint64_t timed_out() const { return timed_out_; }
  [[nodiscard]] std::uint64_t expired() const { return expired_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t redirects() const { return redirects_; }
  [[nodiscard]] std::uint64_t busy_replies() const { return busy_; }
  [[nodiscard]] std::uint64_t target_rotations() const { return rotations_; }
  /// Coalesced wire messages sent (one per destination and flush, more when
  /// a burst exceeds kMaxFramePayload), and the requests they carried —
  /// batched_requests / batches is the mean pack.
  [[nodiscard]] std::uint64_t batches_sent() const { return batches_sent_; }
  [[nodiscard]] std::uint64_t batched_requests() const {
    return batched_requests_;
  }

 private:
  struct InFlight {
    Command cmd;
    Bytes encoded;  // Command::encode(), reused across retries
    ShardId shard = 0;
    Callback cb;
    TimePoint invoked = 0;
    TimePoint next_attempt = 0;
    Duration backoff = 0;
    int attempts = 0;
  };

  /// Shared tail of submit()/get(): window the command and kick the pump.
  std::uint64_t enqueue_command(Command cmd, Callback cb);
  void pump(Runtime& rt);
  /// Queues `f` for the next flush (coalescing on) or sends it immediately.
  void mark_for_send(Runtime& rt, InFlight& f);
  void send_attempt(Runtime& rt, InFlight& f);
  void flush_sends(Runtime& rt);
  /// Per-attempt bookkeeping shared by the immediate and coalesced paths.
  void note_attempt(Runtime& rt, InFlight& f);
  void resend_all(Runtime& rt);
  void rotate_targets();
  void bump_backoff(Runtime& rt, InFlight& f);
  enum class Outcome : std::uint8_t { kReply, kExpired, kTimedOut };
  /// `reply` is set for kReply only.
  void complete(Runtime& rt, std::uint64_t seq, Outcome outcome,
                const ClientReplyMsg* reply = nullptr);
  void arm_tick(Runtime& rt);

  void handle_reply(Runtime& rt, const ClientReplyMsg& msg);
  void handle_redirect(Runtime& rt, const ClientRedirectMsg& msg);
  void handle_busy(Runtime& rt, const ClientBusyMsg& msg);

  ClusterClientConfig config_;
  ShardMap map_{1};
  ProcessId self_ = kNoProcess;
  Runtime* rt_ = nullptr;

  ClientSession session_;
  /// Believed leader per shard. With today's shared-Omega container all
  /// entries converge to one process; per-shard entries future-proof the
  /// client for per-group leadership and keep redirect handling local.
  std::vector<ProcessId> shard_target_;
  int since_progress_ = 0;  // unanswered attempts against current targets

  std::map<std::uint64_t, InFlight> inflight_;  // by seq, insertion order
  std::deque<InFlight> queue_;                  // submitted, not yet in window
  std::set<std::uint64_t> pending_send_;        // marked, awaiting flush
  TimerId tick_timer_ = kInvalidTimer;
  TimerId send_timer_ = kInvalidTimer;

  std::uint64_t acked_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t redirects_ = 0;
  std::uint64_t busy_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t batched_requests_ = 0;
};

}  // namespace lls
