// Decode-robustness fuzzing: every message decoder must either succeed or
// throw SerializationError on arbitrary byte strings — never crash, hang or
// read out of bounds. Exercised with random buffers and with truncated
// prefixes of valid encodings (the classic off-by-one class).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "consensus/experiment.h"
#include "consensus/log_consensus.h"
#include "consensus/paxos.h"
#include "consensus/rotating_consensus.h"
#include "net/relay.h"
#include "omega/ce_omega.h"
#include "omega/cr_omega.h"
#include "rsm/command.h"
#include "rsm/kv_core.h"

namespace lls {
namespace {

using Decoder = std::function<void(BytesView)>;

std::vector<std::pair<std::string, Decoder>> decoders() {
  return {
      {"PrepareMsg", [](BytesView v) { (void)PrepareMsg::decode(v); }},
      {"PromiseMsg", [](BytesView v) { (void)PromiseMsg::decode(v); }},
      {"AcceptMsg", [](BytesView v) { (void)AcceptMsg::decode(v); }},
      {"AcceptedMsg", [](BytesView v) { (void)AcceptedMsg::decode(v); }},
      {"NackMsg", [](BytesView v) { (void)NackMsg::decode(v); }},
      {"DecideMsg", [](BytesView v) { (void)DecideMsg::decode(v); }},
      {"DecideAckMsg", [](BytesView v) { (void)DecideAckMsg::decode(v); }},
      {"ForwardMsg", [](BytesView v) { (void)ForwardMsg::decode(v); }},
      {"Command", [](BytesView v) { (void)Command::decode(v); }},
      {"CommandBatch", [](BytesView v) { (void)CommandBatch::decode(v); }},
      {"AliveMsg", [](BytesView v) { (void)CeOmega::AliveMsg::decode(v); }},
      {"AccuseMsg", [](BytesView v) { (void)CeOmega::AccuseMsg::decode(v); }},
      {"CrLeaderMsg", [](BytesView v) { (void)CrLeaderMsg::decode(v); }},
      {"CrStoredValue", [](BytesView v) { (void)CrStoredValue::decode(v); }},
      {"RcEstimateMsg",
       [](BytesView v) { (void)RotatingConsensus::EstimateMsg::decode(v); }},
      {"RcProposalMsg",
       [](BytesView v) { (void)RotatingConsensus::ProposalMsg::decode(v); }},
      {"RcAckMsg",
       [](BytesView v) { (void)RotatingConsensus::AckMsg::decode(v); }},
      {"RcDecideMsg",
       [](BytesView v) { (void)RotatingConsensus::DecideMsg::decode(v); }},
      {"Envelope",
       [](BytesView v) { (void)RelayActor::Envelope::decode(v); }},
      {"Acceptor", [](BytesView v) { (void)Acceptor::decode(v); }},
      {"LogState", [](BytesView v) { (void)LogState::decode(v); }},
      {"KvSnapshot", [](BytesView v) { (void)KvSnapshot::decode(v); }},
      {"ValueId", [](BytesView v) { (void)value_id(v); }},
  };
}

void expect_no_crash(const Decoder& decode, BytesView bytes,
                     const std::string& name) {
  try {
    decode(bytes);
  } catch (const SerializationError&) {
    // fine: malformed input detected
  } catch (const std::exception& e) {
    FAIL() << name << " threw unexpected exception: " << e.what();
  }
}

TEST(CodecFuzz, RandomBuffersNeverCrashDecoders) {
  Rng rng(0xabcdef);
  for (const auto& [name, decode] : decoders()) {
    for (int trial = 0; trial < 500; ++trial) {
      auto len = static_cast<std::size_t>(rng.next_below(64));
      Bytes buf(len);
      for (auto& b : buf) {
        b = static_cast<std::byte>(rng.next_below(256));
      }
      expect_no_crash(decode, buf, name);
    }
  }
}

TEST(CodecFuzz, EmptyBufferHandled) {
  for (const auto& [name, decode] : decoders()) {
    expect_no_crash(decode, {}, name);
  }
}

TEST(CodecFuzz, TruncatedValidEncodingsThrowNotCrash) {
  // Build one valid encoding per type, then decode every proper prefix.
  std::vector<std::pair<std::string, Bytes>> encodings;
  encodings.emplace_back("PrepareMsg", PrepareMsg{5, 2}.encode());
  PromiseMsg promise;
  promise.round = 3;
  promise.entries.push_back(PromiseEntry{1, 2, true, Bytes{std::byte{9}}});
  encodings.emplace_back("PromiseMsg", promise.encode());
  encodings.emplace_back("AcceptMsg",
                         AcceptMsg{1, 2, 3, Bytes{std::byte{4}}}.encode());
  encodings.emplace_back("AcceptedMsg", AcceptedMsg{1, 2}.encode());
  encodings.emplace_back("NackMsg", NackMsg{1, 2}.encode());
  encodings.emplace_back("DecideMsg",
                         DecideMsg{7, Bytes{std::byte{1}}}.encode());
  encodings.emplace_back("DecideAckMsg", DecideAckMsg{7}.encode());
  encodings.emplace_back("ForwardMsg",
                         ForwardMsg{Bytes{std::byte{1}}}.encode());
  Command cmd;
  cmd.origin = 1;
  cmd.seq = 2;
  cmd.op = KvOp::kCas;
  cmd.key = "key";
  cmd.value = "value";
  cmd.expected = "expected";
  encodings.emplace_back("Command", cmd.encode());
  CommandBatch batch;
  batch.commands = {cmd, cmd};
  encodings.emplace_back("CommandBatch", batch.encode());
  encodings.emplace_back("AliveMsg", CeOmega::AliveMsg{3, 4}.encode());
  encodings.emplace_back("AccuseMsg", CeOmega::AccuseMsg{1, 4}.encode());
  encodings.emplace_back("CrLeaderMsg", CrLeaderMsg{{1, 2, 3}}.encode());
  encodings.emplace_back("CrStoredValue", CrStoredValue{7}.encode());
  encodings.emplace_back(
      "RcEstimateMsg",
      RotatingConsensus::EstimateMsg{1, 2, 0, Bytes{std::byte{3}}}.encode());
  encodings.emplace_back(
      "RcProposalMsg",
      RotatingConsensus::ProposalMsg{1, 2, Bytes{std::byte{3}}}.encode());
  encodings.emplace_back("RcAckMsg", RotatingConsensus::AckMsg{1, 2}.encode());
  encodings.emplace_back(
      "RcDecideMsg",
      RotatingConsensus::DecideMsg{1, Bytes{std::byte{3}}}.encode());
  RelayActor::Envelope envelope;
  envelope.origin = 1;
  envelope.seq = 2;
  envelope.dst = 3;
  envelope.inner_type = 0x0101;
  envelope.payload = Bytes{std::byte{4}};
  encodings.emplace_back("Envelope", envelope.encode());
  Acceptor acceptor;
  acceptor.on_accept(3, 1, Bytes{std::byte{5}});
  encodings.emplace_back("Acceptor", acceptor.encode());
  LogState state;
  state.acceptor = acceptor;
  state.base = 1;
  state.log = {Bytes{std::byte{6}}, std::nullopt, Bytes{}};
  encodings.emplace_back("LogState", state.encode());
  KvSnapshot snapshot;
  snapshot.applied_upto = 4;
  snapshot.store_applied = 3;
  snapshot.data.push_back({Bytes{std::byte{'k'}}, Bytes{std::byte{'v'}}});
  snapshot.dedup.push_back({2, {1, 2}});
  encodings.emplace_back("KvSnapshot", snapshot.encode());
  encodings.emplace_back("ValueId", make_value(9));

  auto all = decoders();
  for (const auto& [name, bytes] : encodings) {
    for (const auto& [dec_name, decode] : all) {
      if (dec_name != name) continue;
      for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        BytesView prefix(bytes.data(), cut);
        EXPECT_THROW(decode(prefix), SerializationError)
            << name << " accepted a " << cut << "-byte prefix of a "
            << bytes.size() << "-byte encoding";
      }
    }
  }
}

/// The head of a PromiseMsg whose entry count lies.
struct PromiseHeader {
  Round round = 1;
  std::uint32_t entries = 1000;

  LLS_WIRE_FIELDS(PromiseHeader, round, entries)
};

/// The head of a Command whose key length runs past the end.
struct CommandHeader {
  ProcessId origin = 0;
  std::uint64_t seq = 1;
  KvOp op = KvOp::kPut;
  std::uint32_t key_length = 0xffffff;

  LLS_WIRE_FIELDS(CommandHeader, origin, seq, op, key_length)
};

TEST(CodecFuzz, LengthFieldLyingAboutSizeThrows) {
  // A PromiseMsg whose entry count claims more entries than are present.
  EXPECT_THROW(PromiseMsg::decode(PromiseHeader{}.encode()),
               SerializationError);

  // A Command whose key length runs past the end.
  EXPECT_THROW(Command::decode(CommandHeader{}.encode()), SerializationError);
}

TEST(CodecFuzz, MutatedValidEncodingsNeverCrash) {
  Rng rng(0x777);
  Command cmd;
  cmd.origin = 3;
  cmd.seq = 42;
  cmd.op = KvOp::kAppend;
  cmd.key = "some-key";
  cmd.value = "some-value";
  Bytes base = cmd.encode();
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = base;
    auto pos = static_cast<std::size_t>(rng.next_below(mutated.size()));
    mutated[pos] = static_cast<std::byte>(rng.next_below(256));
    expect_no_crash([](BytesView v) { (void)Command::decode(v); }, mutated,
                    "Command");
  }
}

}  // namespace
}  // namespace lls
