// The end-of-run KV audit shared by the simulated runs that check a
// replicated store: the campaign's kv and client scenarios, the soak, and
// run_sim_loadgen. The audit finds; each caller words its findings in its
// own messages.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "rsm/command.h"
#include "rsm/kv_core.h"
#include "rsm/kv_store.h"
#include "rsm/linearizability.h"

namespace lls {

/// One alive replica's stores, one per consensus group.
struct ReplicaStores {
  ProcessId process = kNoProcess;
  std::vector<const KvStore*> groups;
  /// Per group, the client sessions' server-side footprints (may be empty).
  std::vector<std::vector<KvCore::SessionFootprint>> sessions = {};
};

/// The group stores of `replica` (any replica type with shards() and
/// group(g): KvReplica, CrKvReplica), with their session footprints.
template <typename Replica>
[[nodiscard]] ReplicaStores stores_of(ProcessId p, const Replica& replica) {
  ReplicaStores out{p, {}, {}};
  for (int g = 0; g < replica.shards(); ++g) {
    out.groups.push_back(&replica.group(g).store());
    out.sessions.push_back(replica.group(g).session_footprints());
  }
  return out;
}

/// Entries a replica group may hold per client session, per unit of the
/// client's window: the window bounds the seq span above the session's ack
/// watermark, so at most `window` dedup seqs and `window` cached results.
inline constexpr std::size_t kSessionEntriesPerWindow = 2;

/// What the audit found at one replica.
struct StoreFindings {
  ProcessId process = kNoProcess;
  /// Groups whose store digest differs from the first audited replica's.
  std::vector<std::size_t> diverged;
  /// Token census only. Keys whose value has a tail after its last ';',
  /// in scan order (group, then key).
  std::vector<std::string> malformed_keys;
  /// Tokens applied more than once, with their count, in token order.
  std::vector<std::pair<std::string, int>> duplicates;
  /// Acked tokens the replica does not hold, in ack order.
  std::vector<std::string> lost;
  /// Session bound only. (group, footprint) of each client session holding
  /// more dedup seqs plus cached results than the bound, in group and
  /// origin order.
  std::vector<std::pair<std::size_t, KvCore::SessionFootprint>> oversized;
};

/// Audits the stores of the alive replicas, given in process order; one
/// StoreFindings per replica, in the same order. Digests must agree per
/// group (a process's M groups are disjoint key partitions that converge
/// independently). With `acked_tokens`, also takes each replica's token
/// census over its groups merged: in token workloads every write appends
/// one unique ';'-terminated token, so a token counted twice was applied
/// twice and an acked token counted zero times was lost. A nonzero
/// `session_bound` also bounds each client session's state per group: the
/// memory a replica spends on a session must follow the client's window
/// (a small multiple of it), not the session's history.
[[nodiscard]] std::vector<StoreFindings> audit_stores(
    const std::vector<ReplicaStores>& replicas,
    const std::vector<std::string>* acked_tokens = nullptr,
    std::size_t session_bound = 0);

/// Files a linearizability report under a run's outcome.
/// kNotLinearizable adds one violation: `<history> is not linearizable:
/// partition "<id>", ` then `minimal core of <k> ops (of <ops>)` when `ops`
/// is given, else `core of <k> ops`. kBudgetExceeded sets
/// `budget_exceeded` instead: the checker gave up, which is not a
/// violation and not a pass either.
void judge_linearizability(const LinReport& report, const std::string& history,
                           std::optional<std::size_t> ops,
                           std::vector<std::string>& violations,
                           bool& budget_exceeded);

/// The client history a caller records while it submits ops straight to
/// its replicas. Callbacks point into this object: keep it in place, and
/// alive for as long as the replicas may answer.
class RecordedHistory {
 public:
  RecordedHistory() = default;
  RecordedHistory(const RecordedHistory&) = delete;
  RecordedHistory& operator=(const RecordedHistory&) = delete;

  /// Records `cmd` as invoked at clock.now() and submits it to `replica`;
  /// the op's response is filled in, at the then clock.now(), when the
  /// replica answers (which may be inside this call).
  template <typename Replica, typename Clock>
  void submit(Replica& replica, Command cmd, const Clock& clock) {
    const std::size_t slot = ops_.size();
    ops_.push_back(HistoryOp{cmd, clock.now(), kTimeNever, {}});
    replica.submit(cmd.op, std::move(cmd.key), std::move(cmd.value),
                   std::move(cmd.expected),
                   [this, slot, &clock](const KvResult& r) {
                     ops_[slot].responded = clock.now();
                     ops_[slot].result = r;
                   });
  }

  [[nodiscard]] const std::vector<HistoryOp>& ops() const { return ops_; }

 private:
  std::vector<HistoryOp> ops_;
};

}  // namespace lls
