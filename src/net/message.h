// Wire message envelope used by the simulator and the in-process runtime,
// plus the client-facing request/reply protocol (0x03xx block).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/blob.h"
#include "common/bytes.h"
#include "common/serialization.h"
#include "common/types.h"
#include "net/wire.h"

namespace lls {

/// FNV-1a over the payload — the integrity check a real transport (UDP/IP
/// checksums, or an application-level CRC) provides. The checksum guard in
/// the delivery path discards copies whose payload no longer matches,
/// turning in-flight bit flips into accounted loss.
inline std::uint64_t payload_checksum(BytesView payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : payload) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Message {
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  MessageType type = 0;
  Bytes payload;
  /// Network-assigned unique sequence for tracing; not visible to actors.
  std::uint64_t seq = 0;
  /// payload_checksum at send time; verified by the delivery path when a
  /// link marked the copy corrupted.
  std::uint64_t checksum = 0;
};

/// Largest payload one wire frame may carry: the IPv4 UDP datagram limit
/// (65507 bytes) less UdpNode's 6-byte frame header. The kernel refuses a
/// bigger datagram outright, so a sender that packs a variable amount into
/// one frame (ClusterClient's request batches) must split at this bound.
inline constexpr std::size_t kMaxFramePayload = 65507 - 6;

// --- client service protocol (0x03xx, the RSM block) -------------------------
//
// Clients are ordinary processes in the same network fabric as the replicas
// (ids >= the cluster size), speaking a small request/reply protocol to
// whichever replica they currently believe is the leader. The protocol is
// deliberately dumb-client-safe: every message is idempotent, any message may
// be lost or duplicated, and a client that guesses the wrong replica is
// redirected rather than served, preserving the leader-drives-everything
// communication discipline of the paper's steady state.

namespace msg_type {
/// Client -> replica: one command submission (or retry of one).
inline constexpr MessageType kClientRequest = 0x0310;
/// Replica -> client: the command's result (sent on apply, resent on retry).
inline constexpr MessageType kClientReply = 0x0311;
/// Replica -> client: "I am not the leader; try `hint`" (NOT_LEADER).
inline constexpr MessageType kClientRedirect = 0x0312;
/// Replica -> client: admission queue over the high-water mark; back off.
inline constexpr MessageType kClientBusy = 0x0313;
/// Client -> replica: several command submissions coalesced into one
/// message (all bound for the same destination; see ClusterClient).
inline constexpr MessageType kClientRequestBatch = 0x0314;
/// Replica -> client: the command was applied, but its cached result is
/// gone (EXPIRED); the client completes it without a result.
inline constexpr MessageType kClientExpired = 0x0315;
}  // namespace msg_type

/// One client command in flight. `command` is an rsm Command::encode() blob —
/// opaque at this layer, so the net library stays below the RSM in the
/// dependency order. (origin, seq) of the embedded command must equal
/// (sending process, `seq`); the replica enforces this, so a client cannot
/// impersonate another session.
struct ClientRequestMsg {
  std::uint64_t seq = 0;
  /// WireBlob: the client borrows its cached encoded command when sending
  /// (no copy per attempt) and the replica decodes a borrow into the
  /// receive buffer (no copy per delivery). See common/blob.h.
  WireBlob command;

  LLS_WIRE_FIELDS(ClientRequestMsg, seq, command)
};

/// Result of one applied command (mirrors rsm KvResult field-for-field so
/// this header does not depend on the RSM).
struct ClientReplyMsg {
  std::uint64_t seq = 0;
  bool ok = false;
  bool found = false;
  std::string value;

  LLS_WIRE_FIELDS(ClientReplyMsg, seq, ok, found, value)
};

/// NOT_LEADER: the replica's current Omega output, as a routing hint.
/// kNoProcess means "no leader elected yet here; ask someone else / retry".
/// `shard` scopes the hint to one consensus group of a multi-group cluster
/// (kNoShard = the hint applies cluster-wide, the M = 1 case — today
/// co-located groups share one Omega, so the distinction is future-proofing
/// for per-group leadership).
struct ClientRedirectMsg {
  ProcessId hint = kNoProcess;
  ShardId shard = kNoShard;

  LLS_WIRE_FIELDS(ClientRedirectMsg, hint, shard)
};

/// Several in-window requests bound for the same replica, packed into one
/// message. Semantically equivalent to the member ClientRequestMsgs sent
/// back-to-back — each item is admitted/answered independently — but the
/// receiving replica may coalesce the newly admitted commands into a single
/// consensus proposal, collapsing the per-command Θ(n) instance cost (the
/// unbatched hot path measured by bench_a5_batching).
struct ClientRequestBatchMsg {
  struct Item {
    std::uint64_t seq = 0;
    WireBlob command;

    LLS_WIRE_FIELDS(Item, seq, command)
  };
  std::vector<Item> items;

  LLS_WIRE_FIELDS(ClientRequestBatchMsg, items)
};

/// EXPIRED: a retry reached the log after the command's first placement was
/// applied and its cached result evicted. The effect happened once; only
/// the result is lost.
struct ClientExpiredMsg {
  std::uint64_t seq = 0;

  LLS_WIRE_FIELDS(ClientExpiredMsg, seq)
};

/// Backpressure: the leader's admission queue is over its high-water mark.
/// `queue` is the current depth, so clients can scale their backoff.
struct ClientBusyMsg {
  std::uint64_t seq = 0;
  std::uint32_t queue = 0;

  LLS_WIRE_FIELDS(ClientBusyMsg, seq, queue)
};

}  // namespace lls
