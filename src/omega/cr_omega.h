// Crash-recovery Omega — EXTENSION beyond the reproduced PODC 2004 paper.
//
// The PODC 2004 core assumes crash-stop processes. The follow-on literature
// (Larrea, Martín, Soraluze, JSS 2011 — the line of work that carries this
// paper's communication-efficiency notion into the crash-recovery model)
// defines Omega for systems where processes crash and recover, possibly
// infinitely often ("unstable" processes), and gives two algorithms which
// this module implements faithfully:
//
//  * CrOmegaStable (their Fig. 3) — communication-efficient, uses stable
//    storage for an incarnation number and the current leader. Property 1:
//    eventually every process that is up — correct or unstable — trusts the
//    same correct process. The elected process is the correct process with
//    the fewest recoveries (smallest incarnation, ties by id); unstable
//    processes rejoin agreement by reading the leader from stable storage
//    on recovery.
//
//  * CrOmegaVolatile (their Fig. 4) — near-communication-efficient, no
//    stable storage, requires a majority of correct processes. Property 2:
//    eventually every correct process trusts the same correct process ℓ,
//    and every unstable process, when up, trusts ⊥ first (kNoProcess) and
//    then ℓ once it hears from it. Among correct processes, eventually only
//    ℓ sends; unstable processes additionally announce RECOVERED on every
//    restart (hence "near"-efficient).
//
// Both run under the simulator's crash-recovery support
// (Simulator::set_actor_factory / recover_at): volatile state dies with the
// process; Runtime::storage() survives.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "net/wire.h"
#include "omega/omega.h"

namespace lls {

namespace msg_type {
inline constexpr MessageType kCrLeader = 0x0120;     ///< LEADER(Recovered[])
inline constexpr MessageType kCrRecovered = 0x0121;  ///< RECOVERED
inline constexpr MessageType kCrAlive = 0x0122;      ///< ALIVE (Fig. 4 only)
}  // namespace msg_type

/// LEADER(Recovered[]): the sender's per-process incarnation (Fig. 3) or
/// recovery count (Fig. 4).
struct CrLeaderMsg {
  std::vector<std::uint64_t> recovered;

  LLS_WIRE_FIELDS(CrLeaderMsg, recovered)
};

/// One stored u64: Fig. 3's incarnation number and leader id.
struct CrStoredValue {
  std::uint64_t value = 0;

  LLS_WIRE_FIELDS(CrStoredValue, value)
};

struct CrOmegaConfig {
  /// Heartbeat period (the papers' η).
  Duration eta = 10 * kMillisecond;
  /// Converts an incarnation/recovery count into time for the adaptive
  /// timeouts and the initial write-back wait (the papers use η +
  /// incarnation abstract units; we scale counts by this step).
  Duration incarnation_step = 10 * kMillisecond;
  /// Timeout growth per premature suspicion.
  Duration timeout_step = 10 * kMillisecond;

  /// Leader-lease hint window (CrOmegaStable only): every LEADER broadcast
  /// renews lease_until() to now + lease_duration while self-led; demotion
  /// zeroes it. 0 (default) = no hint.
  Duration lease_duration = 0;
};

/// Fig. 3: communication-efficient, stable storage.
class CrOmegaStable final : public OmegaActor {
 public:
  explicit CrOmegaStable(CrOmegaConfig config) : config_(config) {}

  void on_start(Runtime& rt) override;
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override;
  void on_timer(Runtime& rt, TimerId timer) override;

  [[nodiscard]] ProcessId leader() const override { return leader_; }
  [[nodiscard]] std::optional<TimePoint> lease_until() const override {
    if (config_.lease_duration <= 0) return std::nullopt;
    return lease_until_;
  }

  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }
  [[nodiscard]] bool leader_written() const { return leader_written_; }

 private:
  void set_leader(Runtime& rt, ProcessId q, bool restart_timer);
  void send_leader_msg(Runtime& rt);

  CrOmegaConfig config_;
  ProcessId self_ = kNoProcess;
  int n_ = 0;

  std::uint64_t incarnation_ = 0;
  ProcessId leader_ = kNoProcess;
  /// Recovered[], held as the LEADER message it is broadcast as.
  CrLeaderMsg leader_msg_;
  std::vector<Duration> timeout_;

  bool leader_written_ = false;  ///< Task 1's initial wait has completed
  TimerId wait_timer_ = kInvalidTimer;
  TimerId tick_timer_ = kInvalidTimer;
  TimerId leader_timer_ = kInvalidTimer;

  /// Self-lease hint (see CrOmegaConfig::lease_duration); volatile by
  /// design — an incarnation restarts with no lease.
  TimePoint lease_until_ = 0;
};

/// Fig. 4: near-communication-efficient, no stable storage, majority of
/// correct processes required. leader() == kNoProcess encodes ⊥.
class CrOmegaVolatile final : public OmegaActor {
 public:
  explicit CrOmegaVolatile(CrOmegaConfig config) : config_(config) {}

  void on_start(Runtime& rt) override;
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override;
  void on_timer(Runtime& rt, TimerId timer) override;

  [[nodiscard]] ProcessId leader() const override { return leader_; }

 private:
  void set_leader(Runtime& rt, ProcessId q, bool restart_timer);
  void maybe_self_elect(Runtime& rt);

  CrOmegaConfig config_;
  ProcessId self_ = kNoProcess;
  int n_ = 0;

  ProcessId leader_ = kNoProcess;  // ⊥
  /// Recovered[], held as the LEADER message it is broadcast as.
  CrLeaderMsg leader_msg_;
  std::vector<Duration> timeout_;
  std::set<ProcessId> alive_from_;

  TimerId tick_timer_ = kInvalidTimer;
  TimerId leader_timer_ = kInvalidTimer;
};

}  // namespace lls
