// Golden byte-encoding pins for every wire message.
//
// The WIRE_FIELDS visitor (net/wire.h) generates each message's codec from
// one declared field list, so a careless reorder, a widened integer or an
// accidentally inserted field changes bytes on the wire — and silently
// breaks mixed-version clusters and recorded-artifact replay. These tests
// pin the exact encodings: a pin mismatch means the wire format changed and
// must be an explicit, intentional decision (update the pin in the same
// change that documents the format bump).
//
// Layout notes worth keeping in mind when reading the hex:
//   * all integers little-endian, fixed width (Round/Instance/seq/ts u64,
//     ProcessId/queue/counts u32, MessageType u16, KvOp u8, bool u8);
//   * Bytes and strings are u32 length + raw bytes;
//   * vectors are u32 count + inline elements;
//   * the lease fields ride at the END of their structs: ts on
//     Prepare/Accept, echo_ts on Promise/Accepted, read_only on Command —
//     so every pre-lease prefix of those messages is unchanged; Command's
//     ack_upto (u64) follows read_only.
#include <gtest/gtest.h>

#include <string>

#include "common/buffer_pool.h"
#include "consensus/experiment.h"
#include "consensus/log_consensus.h"
#include "consensus/paxos.h"
#include "consensus/rotating_consensus.h"
#include "net/message.h"
#include "net/relay.h"
#include "net/wire.h"
#include "omega/ce_omega.h"
#include "omega/cr_omega.h"
#include "rsm/command.h"
#include "rsm/kv_core.h"
#include "shard/shard_map.h"
#include "testing_util.h"

namespace lls {
namespace {

Bytes from_hex(const std::string& hex) {
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::byte>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string to_hex(const Bytes& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::byte b : bytes) {
    const auto v = std::to_integer<unsigned>(b);
    out.push_back(digits[v >> 4]);
    out.push_back(digits[v & 0xF]);
  }
  return out;
}

/// Encode must hit the pin exactly, and decoding the pinned bytes must
/// yield a value that re-encodes to the same bytes (codec is a bijection on
/// its own output). The flat encode path is additionally cross-checked:
/// the Measurer must predict exactly the pinned size, and the pooled
/// arena-backed encoding must be bit-identical to the heap encoding — the
/// zero-copy data plane is not allowed to change a single wire byte.
template <typename Msg>
void expect_golden(const Msg& msg, const std::string& pin) {
  EXPECT_EQ(to_hex(msg.encode()), pin);
  EXPECT_EQ(wire::measure(msg) * 2, pin.size());
  BufferPool pool;
  EXPECT_EQ(to_hex(wire::encode_pooled(pool, msg).bytes()), pin);
  // Round-trip the pin: decoded blob fields borrow into `pinned`, which
  // stays alive until the re-encoding is compared.
  const Bytes pinned = from_hex(pin);
  EXPECT_EQ(to_hex(Msg::decode(pinned).encode()), pin);
}

TEST(WireGolden, ConsensusMessages) {
  expect_golden(PrepareMsg{7, 42, 123456789},
                "07000000000000002a0000000000000015cd5b0700000000");
  PromiseMsg pm;
  pm.round = 9;
  pm.entries.push_back({5, 3, true, Bytes{std::byte{0xAA}, std::byte{0xBB}}});
  pm.entries.push_back({6, kNoRound, false, Bytes{}});
  pm.echo_ts = 77;
  expect_golden(
      pm,
      "0900000000000000020000000500000000000000030000000000000001"
      "02000000aabb0600000000000000ffffffffffffffff00000000004d000000"
      "00000000");
  expect_golden(
      AcceptMsg{11, 4, 2, Bytes{std::byte{0x01}, std::byte{0x02},
                                std::byte{0x03}},
                500},
      "0b000000000000000400000000000000020000000000000003000000010203"
      "f401000000000000");
  expect_golden(AcceptedMsg{11, 4, 500},
                "0b000000000000000400000000000000f401000000000000");
  expect_golden(NackMsg{3, 8}, "03000000000000000800000000000000");
  expect_golden(DecideMsg{13, Bytes{std::byte{0xFF}}},
                "0d0000000000000001000000ff");
  expect_golden(DecideAckMsg{13}, "0d00000000000000");
  expect_golden(ForwardMsg{Bytes{std::byte{0xDE}, std::byte{0xAD}}},
                "02000000dead");
}

TEST(WireGolden, CommandIncludingReadOnlyFlag) {
  Command cmd;
  cmd.origin = 2;
  cmd.seq = 99;
  cmd.op = KvOp::kCas;
  cmd.key = "k";
  cmd.value = "v";
  cmd.expected = "e";
  cmd.ack_upto = 98;
  expect_golden(cmd,
                "02000000630000000000000005010000006b0100000076010000006500"
                "6200000000000000");
  Command rd;
  rd.origin = 1;
  rd.seq = 7;
  rd.op = KvOp::kGet;
  rd.key = "k";
  rd.read_only = true;
  expect_golden(rd,
                "01000000070000000000000002010000006b000000000000000001"
                "0000000000000000");
}

TEST(WireGolden, ClientProtocolMessages) {
  ClientRequestMsg req;
  req.seq = 5;
  req.command = Bytes{std::byte{0x10}};
  expect_golden(req, "05000000000000000100000010");
  ClientReplyMsg rep;
  rep.seq = 5;
  rep.ok = true;
  rep.found = false;
  rep.value = "x";
  expect_golden(rep, "050000000000000001000100000078");
  ClientRedirectMsg redir;
  redir.hint = 3;
  redir.shard = 1;
  expect_golden(redir, "030000000100");
  ClientRequestBatchMsg batch;
  batch.items.push_back({3, Bytes{std::byte{0x20}}});
  batch.items.push_back({4, Bytes{std::byte{0x21}, std::byte{0x22}}});
  expect_golden(batch,
                "02000000030000000000000001000000200400000000000000020000"
                "002122");
  ClientBusyMsg busy;
  busy.seq = 6;
  busy.queue = 17;
  expect_golden(busy, "060000000000000011000000");
  expect_golden(ClientExpiredMsg{6}, "0600000000000000");
}

TEST(WireGolden, ShardEnvelope) {
  GroupEnvelopeMsg env;
  env.shard = 2;
  env.inner_type = 0x0210;
  env.payload = Bytes{std::byte{0x30}, std::byte{0x31}};
  expect_golden(env, "02001002020000003031");
}

/// The lease timestamp fields default to zero; a proposer that never fills
/// them (or a pre-lease peer's encoding with zero padding appended) decodes
/// as "no timestamp", so the lease machinery treats the support as already
/// expired rather than inventing one.
TEST(WireGolden, ZeroLeaseTimestampsDecodeAsNoSupport) {
  const AcceptedMsg acc = AcceptedMsg::decode(
      from_hex("0b000000000000000400000000000000"
               "0000000000000000"));
  EXPECT_EQ(acc.round, 11u);
  EXPECT_EQ(acc.instance, 4u);
  EXPECT_EQ(acc.echo_ts, 0);
}

// ---------------------------------------------------------------------------
// Protocol and storage formats pinned through the actors that produce them:
// the bytes an actor sends (or writes to stable storage) must hit the pin,
// and the pinned bytes fed back in must restore the same behaviour.
// ---------------------------------------------------------------------------

using testing::DurableFakeRuntime;
using testing::FakeRuntime;

/// Encode must hit the pin, and the pinned bytes must decode to a value
/// that re-encodes to the same bytes.
template <typename T>
void expect_encoding(const T& value, const std::string& pin) {
  EXPECT_EQ(to_hex(value.encode()), pin);
  const Bytes pinned = from_hex(pin);
  EXPECT_EQ(to_hex(T::decode(pinned).encode()), pin);
}

/// The payload of the last frame of `type` the runtime sent to `dst`.
Bytes last_sent(const FakeRuntime& rt, ProcessId dst, MessageType type) {
  Bytes out;
  for (const auto& s : rt.sent()) {
    if (s.dst == dst && s.type == type) out = s.payload;
  }
  return out;
}

std::string stored_hex(DurableFakeRuntime& rt, const std::string& key) {
  auto blob = rt.storage_.read(key);
  return blob.has_value() ? to_hex(*blob) : "<absent>";
}

Bytes val(std::uint8_t x) { return Bytes{std::byte{x}}; }

TEST(WireGolden, CeOmegaAliveAndAccuse) {
  CeOmegaConfig config;
  config.eta = 10;
  config.initial_timeout = 30;
  // ACCUSE (accused u32, phase u64): p1 hears p0's ALIVE at phase 5, then
  // times p0 out.
  CeOmega p1(config);
  FakeRuntime rt1(/*id=*/1, /*n=*/3);
  p1.on_start(rt1);
  p1.on_message(rt1, 0, msg_type::kCeOmegaAlive,
                from_hex("00000000000000000500000000000000"));
  for (int i = 0; i < 10 && rt1.count_sent(0, msg_type::kCeOmegaAccuse) == 0;
       ++i) {
    ASSERT_TRUE(rt1.fire_next_timer(p1));
  }
  const std::string accuse = "000000000500000000000000";
  EXPECT_EQ(to_hex(last_sent(rt1, 0, msg_type::kCeOmegaAccuse)), accuse);

  // ALIVE (counter u64, phase u64): the leader's next heartbeat carries the
  // counter raised by three accusations (no phase dedup: phase stays 0).
  // Its peers advertise counter 5, so it stays the leader.
  config.phase_dedup = false;
  CeOmega p0(config);
  FakeRuntime rt0(/*id=*/0, /*n=*/3);
  p0.on_start(rt0);
  for (ProcessId q : {1u, 2u}) {
    p0.on_message(rt0, q, msg_type::kCeOmegaAlive,
                  from_hex("05000000000000000000000000000000"));
  }
  for (int i = 0; i < 3; ++i) {
    p0.on_message(rt0, 1, msg_type::kCeOmegaAccuse, from_hex(accuse));
  }
  rt0.clear_sent();
  ASSERT_TRUE(rt0.fire_next_timer(p0));
  EXPECT_EQ(to_hex(last_sent(rt0, 2, msg_type::kCeOmegaAlive)),
            "03000000000000000000000000000000");
}

TEST(WireGolden, CrOmegaLeaderAndStoredValues) {
  // p2 boots twice over the same storage: incarnation 2, stored leader 2.
  DurableFakeRuntime rt(/*id=*/2, /*n=*/3);
  { CrOmegaStable first(CrOmegaConfig{}); first.on_start(rt); }
  CrOmegaStable p2(CrOmegaConfig{});
  p2.on_start(rt);
  EXPECT_EQ(stored_hex(rt, "cr_omega/incarnation"), "0200000000000000");
  EXPECT_EQ(stored_hex(rt, "cr_omega/leader"), "0200000000000000");
  // LEADER(Recovered[]): u32 count + one u64 incarnation per process.
  for (int i = 0; i < 10 && rt.inner_.count_sent(0, msg_type::kCrLeader) == 0;
       ++i) {
    ASSERT_TRUE(rt.inner_.fire_next_timer(p2));
  }
  EXPECT_EQ(to_hex(last_sent(rt.inner_, 0, msg_type::kCrLeader)),
            "03000000000000000000000000000000000000000200000000000000");
}

TEST(WireGolden, RotatingCoordinatorMessages) {
  RotatingConsensusConfig config;
  config.retry_period = 10;
  // ESTIMATE: a participant reports its initial value to coordinator p0.
  RotatingConsensus p1(config);
  FakeRuntime rt1(/*id=*/1, /*n=*/3);
  p1.on_start(rt1);
  p1.propose_at(3, val(0x71));
  ASSERT_TRUE(rt1.fire_next_timer(p1));
  const Bytes estimate = last_sent(rt1, 0, msg_type::kRcEstimate);
  EXPECT_EQ(to_hex(estimate),
            "03000000000000000000000000000000ffffffffffffffff0100000071");

  // PROPOSAL: the coordinator's pick once a majority of estimates is in.
  RotatingConsensus p0(config);
  FakeRuntime rt0(/*id=*/0, /*n=*/3);
  p0.on_start(rt0);
  p0.propose_at(3, val(0x70));
  ASSERT_TRUE(rt0.fire_next_timer(p0));
  p0.on_message(rt0, 1, msg_type::kRcEstimate, estimate);
  const Bytes proposal = last_sent(rt0, 1, msg_type::kRcProposal);
  EXPECT_EQ(to_hex(proposal), "030000000000000000000000000000000100000070");

  // ACK, then DECIDE once the coordinator holds a majority of acks.
  p1.on_message(rt1, 0, msg_type::kRcProposal, proposal);
  const Bytes ack = last_sent(rt1, 0, msg_type::kRcAck);
  EXPECT_EQ(to_hex(ack), "03000000000000000000000000000000");
  p0.on_message(rt0, 1, msg_type::kRcAck, ack);
  EXPECT_EQ(to_hex(last_sent(rt0, 2, msg_type::kRcDecide)),
            "03000000000000000100000070");
}

TEST(WireGolden, RelayEnvelope) {
  class SendOnStart final : public Actor {
   public:
    void on_start(Runtime& rt) override { rt.send(2, 0x0777, val(0x2a)); }
    void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
    void on_timer(Runtime&, TimerId) override {}
  };
  SendOnStart inner;
  RelayActor relay(inner);
  FakeRuntime rt(/*id=*/1, /*n=*/4);
  relay.on_start(rt);
  // origin u32, seq u64, dst u32, inner type u16, payload.
  const std::string pin = "010000000100000000000000020000007707010000002a";
  EXPECT_EQ(to_hex(last_sent(rt, 3, msg_type::kRelayEnvelope)), pin);

  // The pinned envelope delivers the inner message at its destination.
  class Sink final : public Actor {
   public:
    void on_start(Runtime&) override {}
    void on_message(Runtime&, ProcessId src, MessageType type,
                    BytesView payload) override {
      from = src;
      got = type;
      body.assign(payload.begin(), payload.end());
    }
    void on_timer(Runtime&, TimerId) override {}
    ProcessId from = kNoProcess;
    MessageType got = 0;
    Bytes body;
  };
  Sink sink;
  RelayActor dst(sink);
  FakeRuntime rt2(/*id=*/2, /*n=*/4);
  dst.on_start(rt2);
  dst.on_message(rt2, 1, msg_type::kRelayEnvelope, from_hex(pin));
  EXPECT_EQ(sink.from, 1u);
  EXPECT_EQ(sink.got, 0x0777);
  EXPECT_EQ(sink.body, val(0x2a));
}

Command command(ProcessId origin, std::uint64_t seq, KvOp op, std::string key,
                std::string value) {
  Command c;
  c.origin = origin;
  c.seq = seq;
  c.op = op;
  c.key = std::move(key);
  c.value = std::move(value);
  return c;
}

TEST(WireGolden, CommandBatchOfTwo) {
  CommandBatch batch;
  batch.commands.push_back(command(1, 2, KvOp::kPut, "a", "x"));
  batch.commands.push_back(command(3, 4, KvOp::kAppend, "bc", "yz"));
  // u32 count, then per command a u32 frame length + the command.
  expect_encoding(batch,
                  "0200000024000000010000000200000000000000010100000061010000"
                  "00780000000000000000000000000026000000030000000400000000"
                  "0000000402000000626302000000797a00000000000000000000000000");
}

TEST(WireGolden, AcceptorState) {
  Acceptor a;
  ASSERT_TRUE(a.on_prepare(9));
  ASSERT_TRUE(a.on_accept(9, 2, val(0xaa)));
  ASSERT_TRUE(a.on_accept(11, 5, Bytes{std::byte{0xbb}, std::byte{0xcc}}));
  // promise u64, u32 count, then (instance, round, value) per pair.
  expect_encoding(a,
                  "0b000000000000000200000002000000000000000900000000000000"
                  "01000000aa05000000000000000b0000000000000002000000bbcc");
}

class NullOmega final : public OmegaActor {
 public:
  void on_start(Runtime&) override {}
  void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
  void on_timer(Runtime&, TimerId) override {}
  [[nodiscard]] ProcessId leader() const override { return 0; }
};

LogConsensusConfig durable_log() {
  LogConsensusConfig c;
  c.durable = true;
  return c;
}

TEST(WireGolden, DurableLogRecordWithHoleAndBase) {
  // Decided 0, 1 and 3 (a hole at 2, which holds an accepted pair), then
  // compacted to 1. The four persists before the compaction used journal
  // records 0-3, so the compaction's checkpoint covers up to seq 4:
  // [next_seq 4][u32-framed state: acceptor blob, base, slots 1, 2, 3].
  NullOmega omega;
  DurableFakeRuntime rt(/*id=*/2, /*n=*/3);
  {
    LogConsensus log(durable_log(), &omega);
    log.on_start(rt);
    log.on_message(rt, 0, msg_type::kDecide, DecideMsg{0, val(0x10)}.encode());
    log.on_message(rt, 0, msg_type::kDecide, DecideMsg{1, val(0x11)}.encode());
    log.on_message(rt, 0, msg_type::kDecide, DecideMsg{3, val(0x13)}.encode());
    log.on_message(rt, 0, msg_type::kAccept,
                   AcceptMsg{9, 2, 0, val(0x22)}.encode());
    ASSERT_EQ(log.compact(1), 1u);
  }
  // next_seq u64, then the state as a u32-framed blob: the u32-framed
  // acceptor, base u64, u32 slot count, then per slot a u8 present flag +
  // the value when present.
  const std::string pin =
      "04000000000000003e000000"
      "21000000090000000000000001000000020000000000000009000000000000000100"
      "00002201000000000000000300000001010000001100010100000013";
  EXPECT_EQ(stored_hex(rt, "log_consensus/state"), pin);

  // The pinned checkpoint restores base, slots and the acceptor. (The ring
  // slots 0-3 it covers are absent here; slot 4 would be replayed next.)
  DurableFakeRuntime fresh(/*id=*/2, /*n=*/3);
  fresh.storage_.write("log_consensus/state", from_hex(pin));
  LogConsensus recovered(durable_log(), &omega);
  recovered.on_start(fresh);
  EXPECT_EQ(recovered.compacted_upto(), 1u);
  EXPECT_EQ(recovered.decision(1), val(0x11));
  EXPECT_FALSE(recovered.decision(2).has_value());
  EXPECT_EQ(recovered.decision(3), val(0x13));
  EXPECT_EQ(recovered.acceptor().promised(), 9);
  ASSERT_NE(recovered.acceptor().accepted(2), nullptr);
  EXPECT_EQ(recovered.acceptor().accepted(2)->value, val(0x22));
}

TEST(WireGolden, DurableJournalRecords) {
  // Each persist writes one journal record to ring slot seq % 1024 under
  // "<checkpoint key>/journal/<slot>": seq u64, then the changes since the
  // previous write as a u32-length blob of back-to-back LogChanges (kind u8,
  // round u64, instance u64, u32 length + value). p0 leads: its own promise
  // is written before its PREPARE leaves, and its self-accept rides along
  // with the decision that counts it.
  NullOmega omega;
  DurableFakeRuntime rt(/*id=*/0, /*n=*/3);
  LogConsensus log(durable_log(), &omega);
  log.on_start(rt);
  ASSERT_TRUE(rt.fire_next_timer(log));  // tick: prepare at round 0
  EXPECT_EQ(stored_hex(rt, "log_consensus/state/journal/0"),
            "000000000000000015000000"
            "000000000000000000000000000000000000000000");
  log.on_message(rt, 1, msg_type::kPromise, PromiseMsg{0, {}, 0}.encode());
  ASSERT_TRUE(log.is_leader_ready());
  log.propose(val(0x5a));
  log.on_message(rt, 1, msg_type::kAccepted, AcceptedMsg{0, 0, 0}.encode());
  ASSERT_EQ(log.decision(0), val(0x5a));
  EXPECT_EQ(stored_hex(rt, "log_consensus/state/journal/1"),
            "01000000000000002c000000"
            "0100000000000000000000000000000000010000005a"
            "02ffffffffffffffff0000000000000000010000005a");
  EXPECT_EQ(stored_hex(rt, "log_consensus/state"), "<absent>");

  // A follower's promise record, and the same codec read back directly.
  const LogChange promise{LogChange::Kind::kPromise, 9, 0, {}};
  const Bytes promise_bytes = promise.encode();
  expect_golden(promise, "000900000000000000000000000000000000000000");
  expect_golden(LogRecord{7, WireBlob::ref(promise_bytes)},
                "070000000000000015000000"
                "000900000000000000000000000000000000000000");
  expect_golden(LogCheckpoint{5, WireBlob::ref(val(0x01))},
                "05000000000000000100000001");
}

Command acked(Command c, std::uint64_t ack_upto) {
  c.ack_upto = ack_upto;
  return c;
}

Bytes batch_of(std::vector<Command> commands) {
  CommandBatch batch;
  batch.commands = std::move(commands);
  return batch.encode();
}

TEST(WireGolden, KvSnapshotTwoKeysTwoOrigins) {
  NullOmega omega;
  DurableFakeRuntime rt(/*id=*/2, /*n=*/3);
  KvCoreOptions opts;
  opts.omega = &omega;
  opts.consensus = durable_log();
  {
    KvCore core(opts);
    core.on_start(rt);
    core.on_message(rt, 0, msg_type::kDecide,
                    DecideMsg{0, batch_of({command(1, 1, KvOp::kPut, "a", "x")})}
                        .encode());
    core.on_message(
        rt, 0, msg_type::kDecide,
        DecideMsg{1, batch_of({command(2, 4, KvOp::kPut, "b", "y"),
                               acked(command(1, 2, KvOp::kAppend, "a", "z"),
                                     1)})}
            .encode());
    ASSERT_EQ(core.applied_upto(), 2u);
    core.compact_to(2);
  }
  // applied_upto u64, store op count u64, u32 key count + (key, value)
  // strings in key order, u32 origin count + (origin u32, u32 count + u64
  // seqs above the watermark, sorted, then the u64 watermark) in origin
  // order. Origin 1's second command acked its first: {2} above 1.
  const std::string pin =
      "0200000000000000030000000000000002000000010000006102000000787a0100"
      "000062010000007902000000"
      "01000000010000000200000000000000"
      "0100000000000000"
      "02000000010000000400000000000000"
      "0000000000000000";
  EXPECT_EQ(stored_hex(rt, "kv_core/snapshot/0"), pin);

  // The pinned snapshot alone rebuilds the store and the dedup state.
  DurableFakeRuntime fresh(/*id=*/2, /*n=*/3);
  fresh.storage_.write("kv_core/snapshot/0", from_hex(pin));
  KvCore recovered(opts);
  recovered.on_start(fresh);
  EXPECT_EQ(recovered.applied_upto(), 2u);
  EXPECT_EQ(recovered.applied_count(), 3u);
  EXPECT_EQ(recovered.store().data(),
            (std::map<std::string, std::string>{{"a", "xz"}, {"b", "y"}}));
  // Instances below the snapshot are skipped; a re-decided command above it
  // is a duplicate, whether it sits above its origin's watermark or below.
  for (Instance i : {0u, 1u}) {
    recovered.on_message(fresh, 0, msg_type::kDecide,
                         DecideMsg{i, Bytes{}}.encode());
  }
  recovered.on_message(
      fresh, 0, msg_type::kDecide,
      DecideMsg{2, batch_of({command(2, 4, KvOp::kPut, "b", "dup"),
                             command(1, 1, KvOp::kPut, "a", "dup")})}
          .encode());
  EXPECT_EQ(recovered.store().data(),
            (std::map<std::string, std::string>{{"a", "xz"}, {"b", "y"}}));
  EXPECT_EQ(recovered.duplicates_suppressed(), 2u);
}

TEST(WireGolden, ExperimentValueIds) {
  EXPECT_EQ(to_hex(make_value(0x0102030405060708ULL)), "0807060504030201");
  EXPECT_EQ(value_id(from_hex("0807060504030201")), 0x0102030405060708ULL);
}

}  // namespace
}  // namespace lls
