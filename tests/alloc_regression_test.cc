// Allocation-count regression guards for the zero-copy data plane.
//
// The whole point of the arena-backed codec and buffer pool is that the
// per-message hot path stops touching the heap. These tests count global
// operator new calls directly:
//   * pooled encode of consensus-class messages: ZERO allocations per
//     message once the pool is warm;
//   * borrow-decode of blob-carrying messages: ZERO allocations (the blob
//     fields alias the receive buffer instead of copying);
//   * a follower's ACCEPT plus decide of one value: ONE value-sized
//     allocation (the decided log takes over the acceptor's copy);
//   * a warm leader deciding a value moved into propose(): NO value-sized
//     allocation (the value moves into its own acceptor pair, then into
//     the log), and only the DECIDE-ack bookkeeping besides;
//   * the simulator's event loop in steady state: a generous pinned bound
//     per event, so a stray per-message copy can't creep back in silently
//     (protocol bookkeeping — map/set nodes — legitimately allocates, so
//     literal zero is not the bar here).
//
// The hooks replace global operator new/new[]; deletes intentionally stay
// default (counting frees adds nothing and risks mismatched-size pitfalls).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/buffer_pool.h"
#include "consensus/log_consensus.h"
#include "consensus/paxos.h"
#include "net/topology.h"
#include "net/wire.h"
#include "omega/ce_omega.h"
#include "rsm/command.h"
#include "shard/shard_map.h"
#include "sim/simulator.h"
#include "testing_util.h"

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
/// operator new calls of exactly g_watched_size bytes (0 = none watched).
std::atomic<std::size_t> g_watched_size{0};
std::atomic<std::uint64_t> g_watched_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (size == g_watched_size.load(std::memory_order_relaxed)) {
    g_watched_calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lls {
namespace {

std::uint64_t allocs() {
  return g_new_calls.load(std::memory_order_relaxed);
}

Bytes bytes_of(std::initializer_list<int> vals) {
  Bytes out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(AllocRegression, PooledEncodeIsAllocationFreeWhenWarm) {
  BufferPool pool;
  AcceptMsg msg{11, 4, 2, bytes_of({1, 2, 3, 4, 5, 6, 7, 8}), 500};
  (void)wire::encode_pooled(pool, msg);  // warm: first frame allocates

  const std::uint64_t before = allocs();
  for (int i = 0; i < 1000; ++i) {
    PooledBuffer frame = wire::encode_pooled(pool, msg);
    ASSERT_GT(frame.size(), 0u);
  }
  EXPECT_EQ(allocs() - before, 0u)
      << "pooled AcceptMsg encode allocated on the steady-state path";
}

TEST(AllocRegression, PooledEncodeOfClientBatchIsAllocationFreeWhenWarm) {
  BufferPool pool;
  // A CommandBatch-class frame: the batch payload is pre-encoded (as the
  // client does), then referenced — not copied — by the request message.
  CommandBatch batch;
  for (int i = 0; i < 4; ++i) {
    Command c;
    c.origin = 1;
    c.seq = static_cast<std::uint64_t>(i);
    c.op = KvOp::kPut;
    c.key = "key";
    c.value = "value";
    batch.commands.push_back(c);
  }
  const Bytes encoded_batch = batch.encode();
  ClientRequestMsg req;
  req.seq = 9;
  req.command = WireBlob::ref(encoded_batch);
  (void)wire::encode_pooled(pool, req);  // warm

  const std::uint64_t before = allocs();
  for (int i = 0; i < 1000; ++i) {
    PooledBuffer frame = wire::encode_pooled(pool, req);
    ASSERT_GT(frame.size(), 0u);
  }
  EXPECT_EQ(allocs() - before, 0u)
      << "pooled ClientRequestMsg encode allocated on the steady-state path";
}

TEST(AllocRegression, BorrowDecodeIsAllocationFree) {
  const Bytes accept = AcceptMsg{7, 1, 0, bytes_of({1, 2, 3, 4}), 0}.encode();
  const Bytes decide = DecideMsg{3, bytes_of({5, 6})}.encode();
  const Bytes forward = ForwardMsg{bytes_of({9})}.encode();
  GroupEnvelopeMsg env;
  env.shard = 1;
  env.inner_type = 0x0200;
  env.payload = bytes_of({1, 2, 3});
  const Bytes envelope = env.encode();

  const std::uint64_t before = allocs();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(AcceptMsg::decode(accept).value.size(), 4u);
    ASSERT_EQ(DecideMsg::decode(decide).value.size(), 2u);
    ASSERT_EQ(ForwardMsg::decode(forward).value.size(), 1u);
    ASSERT_EQ(GroupEnvelopeMsg::decode(envelope).payload.size(), 3u);
  }
  EXPECT_EQ(allocs() - before, 0u)
      << "decoding a blob-carrying message copied instead of borrowing";
}

TEST(AllocRegression, PoolRoundTripIsAllocationFreeWhenWarm) {
  BufferPool pool;
  pool.release(pool.acquire(1024));
  const std::uint64_t before = allocs();
  for (int i = 0; i < 1000; ++i) pool.release(pool.acquire(512));
  EXPECT_EQ(allocs() - before, 0u);
}

/// Steady-state bound for the simulator event loop running a real protocol
/// (CE-Omega heartbeats at n=5). Each event legitimately allocates a little
/// (message encode, heap bookkeeping amortization); the bound is generous —
/// its job is to catch a reintroduced per-message payload copy or the event
/// queue regressing to copy-out, both of which multiply allocations.
TEST(AllocRegression, SimulatorSteadyStateStaysUnderPinnedBound) {
  SimConfig config;
  config.n = 5;
  config.seed = 7;
  Simulator sim(config, make_all_timely({500, 2 * kMillisecond}));
  for (ProcessId p = 0; p < 5; ++p) {
    sim.emplace_actor<CeOmega>(p, CeOmegaConfig{});
  }
  sim.start();
  sim.run_for(2 * kSecond);  // warm up: pools filled, tables sized

  const std::uint64_t events_before = sim.events_executed();
  const std::uint64_t before = allocs();
  sim.run_for(4 * kSecond);
  const std::uint64_t delta = allocs() - before;
  const std::uint64_t events = sim.events_executed() - events_before;
  ASSERT_GT(events, 100u);
  EXPECT_LT(delta, events * 8)
      << "simulator steady state allocated " << delta << " times over "
      << events << " events";
}

class LeaderZeroOmega final : public OmegaActor {
 public:
  void on_start(Runtime&) override {}
  void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
  void on_timer(Runtime&, TimerId) override {}
  [[nodiscard]] ProcessId leader() const override { return 0; }
};

/// A follower holds each decided value once: the bytes its acceptor copies
/// out of an ACCEPT become the decided-log entry at decide, so a value
/// costs one value-sized allocation, not an acceptor copy plus a log copy.
TEST(AllocRegression, WarmFollowerAllocatesEachDecidedValueOnce) {
  constexpr std::size_t kValueSize = 1031;  // odd: no container's block size
  constexpr Instance kWarm = 8;
  constexpr Instance kValues = 64;
  LeaderZeroOmega omega;
  testing::FakeRuntime rt(/*id=*/2, /*n=*/3);
  LogConsensus follower(LogConsensusConfig{}, &omega);
  follower.on_start(rt);
  // Every frame is encoded before counting starts.
  std::vector<Bytes> accepts;
  std::vector<Bytes> decides;
  for (Instance i = 0; i < kWarm + kValues; ++i) {
    const Bytes v(kValueSize, static_cast<std::byte>(i));
    accepts.push_back(AcceptMsg{0, i, i, v, 0}.encode());
    decides.push_back(DecideMsg{i, v}.encode());
  }
  const auto accept_then_decide = [&](Instance i) {
    follower.on_message(rt, 0, msg_type::kAccept, accepts[i]);
    follower.on_message(rt, 0, msg_type::kDecide, decides[i]);
  };
  for (Instance i = 0; i < kWarm; ++i) accept_then_decide(i);
  rt.clear_sent();

  g_watched_size = kValueSize;
  const std::uint64_t before = g_watched_calls.load();
  for (Instance i = kWarm; i < kWarm + kValues; ++i) accept_then_decide(i);
  const std::uint64_t value_allocs = g_watched_calls.load() - before;
  g_watched_size = 0;

  EXPECT_EQ(value_allocs, kValues)
      << "a decided value was copied again after its ACCEPT";
  EXPECT_TRUE(follower.acceptor().all_accepted().empty());
  ASSERT_EQ(follower.first_unknown(), kWarm + kValues);
  for (Instance i = 0; i < kWarm + kValues; ++i) {
    EXPECT_EQ(follower.decision(i),
              Bytes(kValueSize, static_cast<std::byte>(i)));
  }
}

/// Runtime that drops every send and never fires a timer: unlike
/// FakeRuntime, whose send copies each frame, it allocates nothing itself.
class NullRuntime final : public Runtime {
 public:
  NullRuntime(ProcessId id, int n) : id_(id), n_(n) {}
  [[nodiscard]] ProcessId id() const override { return id_; }
  [[nodiscard]] int n() const override { return n_; }
  [[nodiscard]] TimePoint now() const override { return 0; }
  void send(ProcessId, MessageType, BytesView) override {}
  TimerId set_timer(Duration) override { return ++last_timer; }
  void cancel_timer(TimerId) override {}
  Rng& rng() override { return rng_; }

  TimerId last_timer = 0;

 private:
  ProcessId id_;
  int n_;
  Rng rng_{1};
};

/// A ready leader holds each value once: propose() moves it into the
/// leader's own acceptor pair, ACCEPTs borrow it from there, and decide
/// moves the pair's bytes into the log. What else a decision allocates is
/// the DECIDE-ack bookkeeping: one map node and n - 1 set nodes.
TEST(AllocRegression, WarmLeaderNeverCopiesItsValue) {
  constexpr std::size_t kValueSize = 1031;  // odd: no container's block size
  constexpr Instance kWarm = 64;
  constexpr Instance kValues = 256;
  for (const int n : {3, 5}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    LeaderZeroOmega omega;
    NullRuntime rt(/*id=*/0, n);
    LogConsensus leader(LogConsensusConfig{}, &omega);
    leader.on_start(rt);
    leader.on_timer(rt, rt.last_timer);  // Phase 1
    const Round r = leader.current_round();
    const Bytes promise = PromiseMsg{r, {}}.encode();
    for (ProcessId q = 1; q < static_cast<ProcessId>(n); ++q) {
      leader.on_message(rt, q, msg_type::kPromise, promise);
    }
    ASSERT_TRUE(leader.is_leader_ready());

    // Every value and frame is built before counting starts.
    std::vector<Bytes> values;
    std::vector<Bytes> accepted;
    std::vector<Bytes> decide_acks;
    for (Instance i = 0; i < kWarm + kValues; ++i) {
      values.emplace_back(kValueSize, static_cast<std::byte>(i));
      accepted.push_back(AcceptedMsg{r, i, 0}.encode());
      decide_acks.push_back(DecideAckMsg{i}.encode());
    }
    const auto decide = [&](Instance i) {
      leader.propose(std::move(values[i]));
      for (ProcessId q = 1; q < static_cast<ProcessId>(n); ++q) {
        leader.on_message(rt, q, msg_type::kAccepted, accepted[i]);
      }
      for (ProcessId q = 1; q < static_cast<ProcessId>(n); ++q) {
        leader.on_message(rt, q, msg_type::kDecideAck, decide_acks[i]);
      }
    };
    for (Instance i = 0; i < kWarm; ++i) decide(i);

    g_watched_size = kValueSize;
    const std::uint64_t value_before = g_watched_calls.load();
    const std::uint64_t before = allocs();
    for (Instance i = kWarm; i < kWarm + kValues; ++i) decide(i);
    const double per_decision =
        static_cast<double>(allocs() - before) / kValues;
    const std::uint64_t value_allocs = g_watched_calls.load() - value_before;
    g_watched_size = 0;

    EXPECT_EQ(value_allocs, 0u) << "the leader copied a value it was given";
    EXPECT_LT(per_decision, n + 0.1);
    ASSERT_EQ(leader.first_unknown(), kWarm + kValues);
    EXPECT_TRUE(leader.acceptor().all_accepted().empty());
    EXPECT_EQ(leader.decision(kWarm + kValues - 1),
              Bytes(kValueSize, static_cast<std::byte>(kWarm + kValues - 1)));
  }
}

}  // namespace
}  // namespace lls
