// RSM command codec.
//
// Commands are the values the consensus log orders. Each carries an
// (origin process, sequence) pair, which (a) makes every submitted value
// byte-unique — required by LogConsensus's pending-queue completion
// matching — and (b) lets replicas deduplicate: consensus guarantees
// at-least-once placement across leader changes, the RSM turns that into
// exactly-once application. The origin's completion watermark (`ack_upto`)
// rides in the same ordered bytes, so every replica prunes its dedup state
// at the same point of the log.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/wire.h"

namespace lls {

enum class KvOp : std::uint8_t {
  kPut = 1,      ///< key := value
  kGet = 2,      ///< read through the log (linearizable read)
  kDel = 3,      ///< erase key
  kAppend = 4,   ///< key := key + value
  kCas = 5,      ///< key := value iff key == expected
};

struct Command {
  ProcessId origin = kNoProcess;
  std::uint64_t seq = 0;
  KvOp op = KvOp::kGet;
  std::string key;
  std::string value;     ///< new value (kPut/kAppend/kCas)
  std::string expected;  ///< compare operand (kCas)
  /// Client marked this command as having no side effects (kGet only): a
  /// replica holding a valid leader lease may answer it from local state
  /// without a consensus instance; when the lease doesn't hold the command
  /// falls back to the ordered path unchanged. Commands that mutate must
  /// never set this.
  bool read_only = false;
  /// Every seq of `origin` at or below this has completed at its submitter
  /// (replied to, or given up on). Stamped once, at the first send, so every
  /// copy of a command carries the same value; replicas raise their dedup
  /// watermark to it at apply and forget what lies below (DESIGN.md §10).
  std::uint64_t ack_upto = 0;

  LLS_WIRE_FIELDS(Command, origin, seq, op, key, value, expected, read_only,
                  ack_upto)
};

struct KvResult {
  bool ok = false;           ///< op succeeded (kCas: comparison held; kGet/kDel: key existed)
  bool found = false;        ///< key existed before the op
  std::string value;         ///< kGet: the read value; others: value after the op
};

/// The unit the consensus log actually orders: one or more commands. A
/// replica configured with batching packs a burst of submissions into one
/// log entry, amortizing the Θ(n) per-instance message cost over the batch
/// (an extension beyond the paper; see bench_a5_batching). Unbatched
/// replicas simply use singleton batches.
struct CommandBatch {
  std::vector<Command> commands;

  // Each command is length-framed, so a reader can borrow one command's
  // bytes as a unit.
  LLS_WIRE_FIELDS(CommandBatch, wire::framed(commands))
};

}  // namespace lls
