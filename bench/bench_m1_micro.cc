// M1 — Microbenchmarks of the substrate (google-benchmark).
//
// Not a paper claim: throughput numbers for the simulator kernel and codecs,
// to catch performance regressions in the substrate the experiments run on.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <type_traits>

#include "common/buffer_pool.h"
#include "common/rng.h"
#include "common/serialization.h"
#include "consensus/paxos.h"
#include "net/message.h"
#include "net/topology.h"
#include "net/wire.h"
#include "omega/ce_omega.h"
#include "rsm/command.h"
#include "sim/simulator.h"

// Global allocation counter, reported as allocs/op by the codec benches —
// the zero-copy claim ("0 heap allocations per message in pooled steady
// state") is checked as a number, not inferred from throughput.
namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
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

// --- legacy codec baseline --------------------------------------------------
// Faithful reimplementation of the pre-flat write path (byte-at-a-time
// push_back into a growing vector) and the pre-blob decode (every blob
// field copied out of the receive buffer). Kept here, not in src/: it
// exists only so the flat/pooled numbers are measured against the real
// predecessor rather than a strawman.

class LegacyWriter {
 public:
  explicit LegacyWriter(std::size_t reserve) { buf_.reserve(reserve); }

  template <typename T>
    requires std::is_integral_v<T>
  void put(T value) {
    auto u = static_cast<std::make_unsigned_t<T>>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::byte>((u >> (8 * i)) & 0xFF));
    }
  }

  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }

  void put_bytes(BytesView v) {
    put(static_cast<std::uint32_t>(v.size()));
    buf_.insert(buf_.end(), v.begin(), v.end());
  }

  void put_string(const std::string& s) {
    put(static_cast<std::uint32_t>(s.size()));
    for (char c : s) buf_.push_back(static_cast<std::byte>(c));
  }

  [[nodiscard]] Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

Bytes legacy_encode_accept(const AcceptMsg& m) {
  LegacyWriter w(40 + m.value.size());
  w.put(m.round);
  w.put(m.instance);
  w.put(m.commit_upto);
  w.put_bytes(m.value.view());
  w.put(m.ts);
  return w.take();
}

struct LegacyAccept {
  Round round = 0;
  Instance instance = 0;
  Instance commit_upto = 0;
  Bytes value;  // the legacy decode copied the blob out
  TimePoint ts = 0;
};

LegacyAccept legacy_decode_accept(BytesView payload) {
  BufReader r(payload);
  LegacyAccept m;
  m.round = r.get<Round>();
  m.instance = r.get<Instance>();
  m.commit_upto = r.get<Instance>();
  m.value = r.get_bytes();
  m.ts = r.get<TimePoint>();
  return m;
}

Bytes legacy_encode_command(const Command& c) {
  LegacyWriter w(32 + c.key.size() + c.value.size() + c.expected.size());
  w.put(c.origin);
  w.put(c.seq);
  w.put_u8(static_cast<std::uint8_t>(c.op));
  w.put_string(c.key);
  w.put_string(c.value);
  w.put_string(c.expected);
  w.put_u8(c.read_only ? 1 : 0);
  return w.take();
}

Bytes legacy_encode_batch(const CommandBatch& b) {
  LegacyWriter w(64);
  w.put(static_cast<std::uint32_t>(b.commands.size()));
  // One temporary heap buffer per command, copied into the frame — the
  // shape the measured-size flat encode replaced.
  for (const Command& c : b.commands) w.put_bytes(legacy_encode_command(c));
  return w.take();
}

CommandBatch legacy_decode_batch(BytesView payload) {
  BufReader r(payload);
  CommandBatch b;
  auto count = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    Bytes frame = r.get_bytes();  // copy, then decode from the copy
    b.commands.push_back(Command::decode(frame));
  }
  return b;
}

Bytes value_of_size(std::size_t size) {
  Bytes v(size);
  for (std::size_t i = 0; i < size; ++i) {
    v[i] = static_cast<std::byte>(i & 0xFF);
  }
  return v;
}

CommandBatch batch_of(std::size_t commands) {
  CommandBatch b;
  for (std::size_t i = 0; i < commands; ++i) {
    Command c;
    c.origin = 1;
    c.seq = i;
    c.op = KvOp::kPut;
    c.key = "key-" + std::to_string(i);
    c.value = "value-payload-" + std::to_string(i);
    b.commands.push_back(c);
  }
  return b;
}

void report_allocs(benchmark::State& state, std::uint64_t before) {
  const auto total = g_new_calls.load(std::memory_order_relaxed) - before;
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(total) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations())));
}

// --- AcceptMsg: the per-instance consensus hot path -------------------------

void BM_AcceptRoundTripLegacy(benchmark::State& state) {
  AcceptMsg msg{11, 4, 2, value_of_size(static_cast<std::size_t>(state.range(0))), 500};
  const auto before = g_new_calls.load(std::memory_order_relaxed);
  for (auto _ : state) {
    Bytes frame = legacy_encode_accept(msg);
    LegacyAccept d = legacy_decode_accept(frame);
    benchmark::DoNotOptimize(d.value.data());
  }
  report_allocs(state, before);
}
BENCHMARK(BM_AcceptRoundTripLegacy)->Arg(16)->Arg(256)->Arg(4096);

void BM_AcceptRoundTripPooled(benchmark::State& state) {
  BufferPool pool;
  AcceptMsg msg{11, 4, 2, value_of_size(static_cast<std::size_t>(state.range(0))), 500};
  (void)wire::encode_pooled(pool, msg);  // warm the pool
  const auto before = g_new_calls.load(std::memory_order_relaxed);
  for (auto _ : state) {
    PooledBuffer frame = wire::encode_pooled(pool, msg);
    AcceptMsg d = AcceptMsg::decode(frame.view());
    benchmark::DoNotOptimize(d.value.size());
  }
  report_allocs(state, before);
}
BENCHMARK(BM_AcceptRoundTripPooled)->Arg(16)->Arg(256)->Arg(4096);

// --- CommandBatch: the client-request hot path ------------------------------

void BM_CommandBatchRoundTripLegacy(benchmark::State& state) {
  const CommandBatch batch = batch_of(static_cast<std::size_t>(state.range(0)));
  const auto before = g_new_calls.load(std::memory_order_relaxed);
  for (auto _ : state) {
    Bytes frame = legacy_encode_batch(batch);
    CommandBatch d = legacy_decode_batch(frame);
    benchmark::DoNotOptimize(d.commands.data());
  }
  report_allocs(state, before);
}
BENCHMARK(BM_CommandBatchRoundTripLegacy)->Arg(1)->Arg(8)->Arg(64);

void BM_CommandBatchRoundTripFlat(benchmark::State& state) {
  const CommandBatch batch = batch_of(static_cast<std::size_t>(state.range(0)));
  const auto before = g_new_calls.load(std::memory_order_relaxed);
  for (auto _ : state) {
    Bytes frame = batch.encode();
    CommandBatch d = CommandBatch::decode(frame);
    benchmark::DoNotOptimize(d.commands.data());
  }
  report_allocs(state, before);
}
BENCHMARK(BM_CommandBatchRoundTripFlat)->Arg(1)->Arg(8)->Arg(64);

// Full client-request framing over the wire, legacy shape: the encoded
// batch is *copied* into the request's command field, the request is
// byte-at-a-time encoded, and decode copies the command back out.
void BM_ClientRequestWrapLegacy(benchmark::State& state) {
  const CommandBatch batch = batch_of(static_cast<std::size_t>(state.range(0)));
  const Bytes encoded_batch = batch.encode();
  const auto before = g_new_calls.load(std::memory_order_relaxed);
  for (auto _ : state) {
    LegacyWriter w(24 + encoded_batch.size());
    w.put<std::uint64_t>(9);
    w.put<std::uint64_t>(8);
    w.put_bytes(encoded_batch);  // copy #1: payload into the frame
    Bytes frame = w.take();
    BufReader r(frame);
    benchmark::DoNotOptimize(r.get<std::uint64_t>());
    benchmark::DoNotOptimize(r.get<std::uint64_t>());
    Bytes command = r.get_bytes();  // copy #2: payload out of the frame
    benchmark::DoNotOptimize(command.data());
  }
  report_allocs(state, before);
}
BENCHMARK(BM_ClientRequestWrapLegacy)->Arg(8)->Arg(64);

// Same framing, zero-copy shape: batch payload referenced (not copied) into
// the request message, request encoded from the pool — the steady-state
// shape of the replica send path. allocs/op counts only what encode() of
// the wrapper costs; the pre-encoded batch is workload, not framing.
void BM_ClientRequestWrapPooled(benchmark::State& state) {
  BufferPool pool;
  const CommandBatch batch = batch_of(static_cast<std::size_t>(state.range(0)));
  const Bytes encoded_batch = batch.encode();
  ClientRequestMsg req;
  req.seq = 9;
  req.command = WireBlob::ref(encoded_batch);
  (void)wire::encode_pooled(pool, req);  // warm
  const auto before = g_new_calls.load(std::memory_order_relaxed);
  for (auto _ : state) {
    PooledBuffer frame = wire::encode_pooled(pool, req);
    ClientRequestMsg d = ClientRequestMsg::decode(frame.view());
    benchmark::DoNotOptimize(d.command.size());
  }
  report_allocs(state, before);
}
BENCHMARK(BM_ClientRequestWrapPooled)->Arg(8)->Arg(64);

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

/// A small mixed-field record for the codec round trip.
struct RoundTripRecord {
  std::uint64_t id = 0;
  std::uint32_t tag = 0;
  std::string text;

  LLS_WIRE_FIELDS(RoundTripRecord, id, tag, text)
};

void BM_SerializationRoundTrip(benchmark::State& state) {
  const RoundTripRecord record{123456789, 42, "key-value-payload"};
  for (auto _ : state) {
    RoundTripRecord d = RoundTripRecord::decode(record.encode());
    benchmark::DoNotOptimize(d.id);
    benchmark::DoNotOptimize(d.tag);
    benchmark::DoNotOptimize(d.text);
  }
}
BENCHMARK(BM_SerializationRoundTrip);

void BM_LinkDecision(benchmark::State& state) {
  Rng rng(2);
  FairLossyLink link({0.5, 4, {500, 5000}});
  TimePoint t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.on_send(t++, 1, rng));
  }
}
BENCHMARK(BM_LinkDecision);

void BM_TimerChurn(benchmark::State& state) {
  // One process arming and cancelling timers through the simulator.
  class TimerActor final : public Actor {
   public:
    void on_start(Runtime&) override {}
    void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
    void on_timer(Runtime&, TimerId) override {}
  };
  Simulator sim(SimConfig{2, 1, 10 * kMillisecond}, make_all_timely({1, 1}));
  sim.emplace_actor<TimerActor>(0);
  sim.emplace_actor<TimerActor>(1);
  sim.start();
  for (auto _ : state) {
    // exercised via the public scheduling surface
    sim.schedule(sim.now() + 1, []() {});
    sim.step();
  }
}
BENCHMARK(BM_TimerChurn);

void BM_SimOmegaEventsPerSec(benchmark::State& state) {
  // End-to-end simulator throughput on the CE-Omega workload.
  auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim(SimConfig{n, 3, 10 * kMillisecond},
                  make_all_timely({500, 2 * kMillisecond}));
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      sim.emplace_actor<CeOmega>(p, CeOmegaConfig{});
    }
    sim.start();
    sim.run_until(2 * kSecond);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(sim.events_executed()), benchmark::Counter::kIsRate);
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_SimOmegaEventsPerSec)->Arg(5)->Arg(20)->Arg(50);

void BM_NetworkRoute(benchmark::State& state) {
  Rng rng(4);
  Network net(8, make_all_timely({500, 2000}), rng, 10 * kMillisecond);
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.type = 1;
  TimePoint t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.route(msg, t++));
  }
}
BENCHMARK(BM_NetworkRoute);

}  // namespace
}  // namespace lls

BENCHMARK_MAIN();
