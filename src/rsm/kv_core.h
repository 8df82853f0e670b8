// KvCore: one consensus group's replicated-KV machinery, independent of the
// leader oracle that drives it.
//
// The replica container (replica.h) hosts M >= 1 cores behind a single
// Omega instance, so no core instantiates an oracle of its own. A core owns
//   * a LogConsensus engine (fed by the shared, non-owned OmegaActor) whose
//     decisions reach the core through a direct sink bound at construction,
//   * the deterministic KvStore it applies decided commands to,
//   * all client-service state for its key range: (origin, seq) dedup,
//     result caches, the admission window with BUSY backpressure, batching.
//
// Consensus guarantees at-least-once placement of a submitted command (it
// may appear in two instances across a leader change); the core's
// (origin, seq) dedup turns that into exactly-once application, so all
// replicas' stores converge byte-for-byte. The dedup state is itself a
// function of the log: each command carries its origin's ack watermark,
// and every replica prunes at the same apply (DESIGN.md §10).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "consensus/log_consensus.h"
#include "net/message.h"
#include "omega/omega.h"
#include "rsm/kv_store.h"

namespace lls {

/// One key of the store. Encoding borrows the store's strings; decoding
/// borrows the stored blob.
struct SnapshotEntry {
  WireBlob key;
  WireBlob value;

  LLS_WIRE_FIELDS(SnapshotEntry, key, value)
};

/// One origin's dedup state: `seqs` lists the applied seqs above `upto`,
/// sorted, and every seq at or below `upto` is done.
struct SnapshotDedup {
  ProcessId origin = kNoProcess;
  std::vector<std::uint64_t> seqs;
  std::uint64_t upto = 0;

  LLS_WIRE_FIELDS(SnapshotDedup, origin, seqs, upto)
};

/// The state-machine snapshot a durable core persists before compacting
/// its log (see KvCore::compact_to).
struct KvSnapshot {
  Instance applied_upto = 0;
  std::uint64_t store_applied = 0;
  std::vector<SnapshotEntry> data;   ///< key order
  std::vector<SnapshotDedup> dedup;  ///< origin order

  LLS_WIRE_FIELDS(KvSnapshot, applied_upto, store_applied, data, dedup)
};

struct KvReplicaConfig {
  /// Commands per consensus value. With > 1, bursts of submissions (local
  /// or admitted from client sessions) are packed into one log entry,
  /// amortizing the Θ(n) per-instance message cost over the batch
  /// (extension; measured by bench_a5_batching).
  std::size_t max_batch = 1;

  /// How long a partially filled batch may wait before being flushed.
  Duration batch_flush_delay = 5 * kMillisecond;

  /// Replicas occupy process ids [0, cluster_n); any higher id in the same
  /// runtime is a client session. 0 means "all processes are replicas" (no
  /// external clients — the pre-client-layer configuration). The protocol
  /// stack underneath (Omega, consensus) quantifies over the cluster only.
  int cluster_n = 0;

  /// Admission control: maximum client commands admitted by this replica
  /// and not yet applied. Beyond it, requests get a BUSY reply.
  std::size_t admit_high_water = 1024;

  /// Serve locally submitted kGet commands from local state whenever the
  /// consensus leader lease holds (zero messages, zero instances); fall
  /// back to the ordered path otherwise. Requires the consensus config's
  /// lease to be enabled to ever fire. Client-protocol reads are governed
  /// by the Command::read_only flag the client sets, not by this knob.
  bool lease_reads = false;
};

/// Everything a KvCore needs, in one named place (replaces the positional
/// (omega, consensus config, replica config) constructor sprawl). The
/// consensus config's `shard` field doubles as the core's shard identity.
struct KvCoreOptions {
  /// Leader oracle; not owned, must outlive the core.
  const OmegaActor* omega = nullptr;
  LogConsensusConfig consensus;
  KvReplicaConfig replica;
};

class KvCore final : public Actor {
 public:
  using Callback = std::function<void(const KvResult&)>;

  /// The options' omega supplies the leader oracle; not owned, must outlive
  /// this core (the owning replica holds both). The consensus config's
  /// `shard` field doubles as this core's shard identity: redirects carry it
  /// as the routing hint scope (shard < 0 = the only group, kNoShard), and
  /// the snapshot storage key carries the engine's group tag.
  explicit KvCore(const KvCoreOptions& options);

  KvCore(const KvCore&) = delete;  // the engine's sink captures `this`
  KvCore& operator=(const KvCore&) = delete;

  /// Overrides the first local submit() sequence number, evaluated lazily on
  /// the first submission (after the oracle has started). Crash-recovery
  /// replicas namespace sequences by the omega incarnation; unset = start
  /// at 1.
  void set_initial_seq(std::function<std::uint64_t()> fn) {
    initial_seq_ = std::move(fn);
  }

  // Actor ------------------------------------------------------------------
  // The runtime handed in must present the *cluster* view (n() = replica
  // count): the owning replica wraps the fabric runtime accordingly. The
  // core handles the consensus block (0x02xx) and the client protocol
  // (0x031x); Omega traffic stays with the owner.
  void on_start(Runtime& rt) override;
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override;
  void on_timer(Runtime& rt, TimerId timer) override;

  // Client surface ----------------------------------------------------------
  /// Submits a command from this replica; `cb` (optional) fires when the
  /// command is applied locally. Returns the command's sequence number.
  std::uint64_t submit(KvOp op, std::string key, std::string value = "",
                       std::string expected = "", Callback cb = nullptr);

  [[nodiscard]] const KvReplicaConfig& config() const { return config_; }
  [[nodiscard]] const KvStore& store() const { return store_; }
  [[nodiscard]] std::uint64_t applied_count() const { return store_.applied(); }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return duplicates_;
  }
  LogConsensus& consensus() { return consensus_; }
  [[nodiscard]] const LogConsensus& consensus() const { return consensus_; }

  // Compaction ---------------------------------------------------------------
  /// Compacts the consensus log below everything this core has applied,
  /// snapshotting the KV state to stable storage first when the group is
  /// durable. Without the snapshot, a durable replica recovering after
  /// compaction would rebuild its store only from the surviving log suffix
  /// and silently lose the compacted prefix (the PR 9 audit bug).
  Instance compact_applied();
  /// Like compact_applied, but bounded by an externally coordinated
  /// watermark (typically min(applied_upto) across the cluster). Compacting
  /// past the slowest live replica's applied prefix destroys the only copies
  /// of decisions that replica still needs — it could then never catch up,
  /// and LogConsensus's prepare-side compaction guard would refuse it
  /// leadership forever. Drivers that compact concurrently with churn or
  /// crash-recovery must use this coordinated form.
  Instance compact_to(Instance upto);
  /// Instances this core has fully applied (1 + the highest decided
  /// instance seen; instance numbering is dense below it).
  [[nodiscard]] Instance applied_upto() const { return applied_upto_; }

  // Client-service introspection --------------------------------------------
  /// Client commands admitted here and not yet applied (the BUSY meter).
  [[nodiscard]] std::size_t admitted_inflight() const {
    return admitted_inflight_;
  }
  [[nodiscard]] std::uint64_t busy_sent() const { return busy_sent_; }
  [[nodiscard]] std::uint64_t redirects_sent() const {
    return redirects_sent_;
  }
  [[nodiscard]] std::uint64_t client_replies_sent() const {
    return client_replies_sent_;
  }
  /// Retried requests answered from the result cache (no re-execution).
  [[nodiscard]] std::uint64_t cached_replies_sent() const {
    return cached_replies_sent_;
  }
  /// Read-only commands served from local state under a valid leader lease
  /// (zero consensus instances, zero inter-replica messages each).
  [[nodiscard]] std::uint64_t reads_local() const { return reads_local_; }
  /// Read-only commands that fell back to the ordered (consensus) path
  /// because the lease did not hold at service time.
  [[nodiscard]] std::uint64_t reads_ordered() const { return reads_ordered_; }
  /// Retries answered EXPIRED: applied once, result no longer cached.
  [[nodiscard]] std::uint64_t expired_sent() const { return expired_sent_; }

  /// Entries this core holds for one client session: dedup seqs above the
  /// watermark plus cached results (the audit bounds it by the window).
  struct SessionFootprint {
    ProcessId origin = kNoProcess;
    std::size_t dedup = 0;
    std::size_t results = 0;
  };
  /// One footprint per client session this core knows, in origin order.
  [[nodiscard]] std::vector<SessionFootprint> session_footprints() const;

 private:
  /// Per-session server-side state. `results` answers retries of applied
  /// commands; `admitted` marks commands this core queued for consensus
  /// (it replies when they apply — other replicas apply silently).
  struct ClientSessionSrv {
    std::uint64_t ack_upto = 0;
    std::map<std::uint64_t, KvResult> results;
    std::set<std::uint64_t> admitted;
  };

  /// One origin's applied seqs: all of them at or below `upto`, plus the
  /// sorted `above` (commands of one origin may be decided out of sequence
  /// order across leader changes, so a plain watermark is not enough).
  struct AppliedSeqs {
    std::uint64_t upto = 0;
    std::vector<std::uint64_t> above;

    [[nodiscard]] bool contains(std::uint64_t seq) const;
    void insert(std::uint64_t seq);
    /// Raises the watermark to `ack` and forgets the seqs it now covers.
    void raise(std::uint64_t ack);
  };

  /// The engine's decision sink: applies one decided log entry.
  void on_decided(Instance i, BytesView value);
  void apply_command(const Command& cmd);
  void persist_snapshot(Runtime& rt) const;
  void restore_snapshot(Runtime& rt);
  [[nodiscard]] std::string snapshot_key() const;
  void flush_batch();
  void enqueue_for_consensus(Command cmd);
  /// Hands a burst of admitted commands to consensus together: one proposal
  /// when batching is off (the client-coalescing win), the usual batch
  /// buffer otherwise.
  void enqueue_commands(std::vector<Command> cmds);
  void handle_client_request(Runtime& rt, ProcessId src, BytesView payload);
  void handle_client_batch(Runtime& rt, ProcessId src, BytesView payload);
  /// Shared admission path for single and batched requests: answers cache
  /// hits / redirects / BUSY directly; returns the command only when it was
  /// newly admitted and is owed a consensus placement.
  std::optional<Command> admit_one(Runtime& rt, ProcessId src,
                                   std::uint64_t seq, BytesView command_blob);
  void send_reply(ProcessId client, std::uint64_t seq, const KvResult& result);
  void send_expired(ProcessId client, std::uint64_t seq);
  /// Marks local seq `seq` done (applied here, or answered without
  /// ordering) and advances local_acked_ over the contiguous prefix.
  void local_done(std::uint64_t seq);
  /// Executes kGet semantics against the local store without touching any
  /// replication state — the lease fast path's read.
  [[nodiscard]] KvResult local_read(const std::string& key) const;

  [[nodiscard]] bool is_client(ProcessId p) const {
    return p != kNoProcess && p >= static_cast<ProcessId>(cluster_n_) &&
           cluster_n_ > 0;
  }

  KvReplicaConfig config_;
  Runtime* rt_ = nullptr;
  const OmegaActor* omega_;
  LogConsensus consensus_;
  /// Shard identity carried in redirects (kNoShard for the only group).
  ShardId shard_ = kNoShard;
  std::function<std::uint64_t()> initial_seq_;

  ProcessId self_ = kNoProcess;
  int cluster_n_ = 0;
  bool durable_ = false;  ///< mirror of the consensus config's durable flag
  KvStore store_;
  /// 1 + highest decided instance applied (or skipped-as-snapshotted).
  Instance applied_upto_ = 0;
  /// Decisions below this are covered by the restored snapshot: their
  /// replays on recovery must not re-apply (the dedup sets that would have
  /// suppressed them were folded into the snapshot).
  Instance snapshot_skip_ = 0;
  std::uint64_t next_seq_ = 0;
  bool seq_initialized_ = false;
  std::uint64_t duplicates_ = 0;
  /// Applied sequences per origin, pruned at apply by each command's
  /// ack_upto: replicated state, identical on every replica.
  std::unordered_map<ProcessId, AppliedSeqs> applied_;
  std::map<std::uint64_t, Callback> callbacks_;  // by local seq
  /// This core's own completion watermark, stamped on its submissions:
  /// every local seq <= local_acked_ is done, and local_done_ holds the
  /// done ones above it.
  std::uint64_t local_acked_ = 0;
  std::set<std::uint64_t> local_done_;

  // Client service.
  std::unordered_map<ProcessId, ClientSessionSrv> clients_;
  std::size_t admitted_inflight_ = 0;
  std::uint64_t busy_sent_ = 0;
  std::uint64_t redirects_sent_ = 0;
  std::uint64_t client_replies_sent_ = 0;
  std::uint64_t cached_replies_sent_ = 0;
  std::uint64_t expired_sent_ = 0;

  // Lease read path.
  std::uint64_t reads_local_ = 0;
  std::uint64_t reads_ordered_ = 0;
  obs::Counter* reads_local_ctr_ = nullptr;
  obs::Counter* reads_ordered_ctr_ = nullptr;

  // Batching mode.
  std::vector<Command> batch_;
  TimerId flush_timer_ = kInvalidTimer;
};

}  // namespace lls
