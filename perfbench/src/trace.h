// Passive instrumentation for the benchmark, built only from the stack's
// public seams: a forwarding Actor, a forwarding Runtime (the
// ClusterViewRuntime pattern from common/actor.h) and a forwarding
// StableStorage. Wrapping a process changes nothing it does — no timers,
// no messages, no random draws — so a wrapped run replays an unwrapped one
// event for event.
//
// Counting is always on (a few array increments per message). Timing — two
// steady_clock reads around every callback, send and storage write — is on
// only while LayerStats::timed is set, which is what a traced run toggles.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/actor.h"
#include "common/storage.h"

namespace perfbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The stack's layers as the message-type blocks lay them out (omega/omega.h,
/// net/message.h): 0x01xx Omega, 0x02xx consensus, 0x03xx the client
/// protocol — rsm at a replica, client at a client session.
enum Layer : std::uint8_t {
  kOmega = 0,
  kConsensus,
  kRsm,
  kClient,
  kReplicaTimer,  ///< replica on_timer: heartbeats, retransmits, batch flush
  kClientTimer,   ///< client on_timer: retries, deadline scan, send flush
  kOther,
  kLayerCount
};

enum class Role : std::uint8_t { kReplica, kClient };

inline Layer message_layer(lls::MessageType type, Role role) {
  switch (type >> 8) {
    case 0x01: return kOmega;
    case 0x02: return kConsensus;
    case 0x03: return role == Role::kClient ? kClient : kRsm;
    default: return kOther;
  }
}

/// Counters and busy time gathered by the wrappers. One instance per thread
/// of execution (the simulator shares one across its processes; every UDP
/// node owns one), so no field is ever touched concurrently.
struct LayerStats {
  static constexpr std::size_t kTypes = 0x400;

  bool timed = false;

  std::array<std::uint64_t, kTypes> sent{};  ///< Runtime::send calls by type
  std::uint64_t sent_bytes = 0;
  std::array<std::uint64_t, kLayerCount> calls{};
  std::uint64_t storage_writes = 0;
  std::uint64_t storage_bytes = 0;

  // Timed only. handler_ns is self time: callback time minus the sends and
  // storage writes made inside it (those belong to their own layers).
  std::int64_t send_ns = 0;
  std::int64_t storage_ns = 0;
  std::array<std::int64_t, kLayerCount> handler_ns{};
  std::int64_t callback_ns = 0;  ///< inclusive time inside actor callbacks
  std::int64_t outside_ns = 0;   ///< send/storage time outside any callback

  // Nesting scratch, not a metric.
  int depth = 0;
  std::int64_t child_ns = 0;

  /// Field-wise this - base for the metric fields (a delta over a phase).
  [[nodiscard]] LayerStats minus(const LayerStats& base) const {
    LayerStats d;
    for (std::size_t t = 0; t < kTypes; ++t) d.sent[t] = sent[t] - base.sent[t];
    d.sent_bytes = sent_bytes - base.sent_bytes;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      d.calls[l] = calls[l] - base.calls[l];
      d.handler_ns[l] = handler_ns[l] - base.handler_ns[l];
    }
    d.storage_writes = storage_writes - base.storage_writes;
    d.storage_bytes = storage_bytes - base.storage_bytes;
    d.send_ns = send_ns - base.send_ns;
    d.storage_ns = storage_ns - base.storage_ns;
    d.callback_ns = callback_ns - base.callback_ns;
    d.outside_ns = outside_ns - base.outside_ns;
    return d;
  }

  void add(const LayerStats& o) {
    for (std::size_t t = 0; t < kTypes; ++t) sent[t] += o.sent[t];
    sent_bytes += o.sent_bytes;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      calls[l] += o.calls[l];
      handler_ns[l] += o.handler_ns[l];
    }
    storage_writes += o.storage_writes;
    storage_bytes += o.storage_bytes;
    send_ns += o.send_ns;
    storage_ns += o.storage_ns;
    callback_ns += o.callback_ns;
    outside_ns += o.outside_ns;
  }

  /// Sends of one type block (e.g. 0x02 = consensus class).
  [[nodiscard]] std::uint64_t sent_in_block(unsigned block) const {
    std::uint64_t total = 0;
    for (std::size_t t = block << 8; t < ((block + 1) << 8); ++t) {
      total += sent[t];
    }
    return total;
  }

  /// Accounts `ns` spent in a send or storage write.
  void note_child(std::int64_t ns) {
    if (depth > 0) {
      child_ns += ns;
    } else {
      outside_ns += ns;
    }
  }
};

/// Counts (and, when timed, times) every write to the wrapped storage.
class TracingStorage final : public lls::StableStorage {
 public:
  void bind(lls::StableStorage& base, LayerStats& stats) {
    base_ = &base;
    stats_ = &stats;
  }

  void write(const std::string& key, lls::BytesView value) override {
    ++stats_->storage_writes;
    stats_->storage_bytes += value.size();
    if (!stats_->timed) {
      base_->write(key, value);
      return;
    }
    const std::int64_t t0 = wall_ns();
    base_->write(key, value);
    const std::int64_t dt = wall_ns() - t0;
    stats_->storage_ns += dt;
    stats_->note_child(dt);
  }

  [[nodiscard]] std::optional<lls::Bytes> read(const std::string& key) override {
    return base_->read(key);
  }

 private:
  lls::StableStorage* base_ = nullptr;
  LayerStats* stats_ = nullptr;
};

/// Forwards everything to the base runtime; counts and times send().
class TracingRuntime final : public lls::Runtime {
 public:
  void bind(lls::Runtime& base, LayerStats& stats) {
    base_ = &base;
    stats_ = &stats;
    if (lls::StableStorage* s = base.storage()) storage_.bind(*s, stats);
  }

  [[nodiscard]] lls::ProcessId id() const override { return base_->id(); }
  [[nodiscard]] int n() const override { return base_->n(); }
  [[nodiscard]] lls::TimePoint now() const override { return base_->now(); }
  void send(lls::ProcessId dst, lls::MessageType type,
            lls::BytesView payload) override {
    ++stats_->sent[type % LayerStats::kTypes];
    stats_->sent_bytes += payload.size();
    if (!stats_->timed) {
      base_->send(dst, type, payload);
      return;
    }
    const std::int64_t t0 = wall_ns();
    base_->send(dst, type, payload);
    const std::int64_t dt = wall_ns() - t0;
    stats_->send_ns += dt;
    stats_->note_child(dt);
  }
  lls::TimerId set_timer(lls::Duration delay) override {
    return base_->set_timer(delay);
  }
  void cancel_timer(lls::TimerId timer) override { base_->cancel_timer(timer); }
  lls::Rng& rng() override { return base_->rng(); }
  [[nodiscard]] lls::StableStorage* storage() override {
    return base_->storage() != nullptr ? &storage_ : nullptr;
  }
  [[nodiscard]] lls::obs::Plane& obs() override { return base_->obs(); }
  [[nodiscard]] lls::BufferPool& pool() override { return base_->pool(); }

 private:
  lls::Runtime* base_ = nullptr;
  LayerStats* stats_ = nullptr;
  TracingStorage storage_;
};

/// Hosts one protocol actor, handing it a TracingRuntime and timing its
/// callbacks by layer.
class TracingActor final : public lls::Actor {
 public:
  TracingActor(std::unique_ptr<lls::Actor> inner, Role role, LayerStats& stats)
      : inner_(std::move(inner)), role_(role), stats_(stats) {}

  void on_start(lls::Runtime& rt) override {
    rt_.bind(rt, stats_);
    run(kOther, [&] { inner_->on_start(rt_); });
  }
  void on_message(lls::Runtime&, lls::ProcessId src, lls::MessageType type,
                  lls::BytesView payload) override {
    run(message_layer(type, role_),
        [&] { inner_->on_message(rt_, src, type, payload); });
  }
  void on_timer(lls::Runtime&, lls::TimerId timer) override {
    run(role_ == Role::kClient ? kClientTimer : kReplicaTimer,
        [&] { inner_->on_timer(rt_, timer); });
  }

  template <typename T>
  T& inner_as() {
    return static_cast<T&>(*inner_);
  }
  lls::Runtime& runtime() { return rt_; }

 private:
  template <typename Fn>
  void run(Layer layer, Fn&& fn) {
    ++stats_.calls[layer];
    if (!stats_.timed) {
      fn();
      return;
    }
    const std::int64_t saved_child = stats_.child_ns;
    stats_.child_ns = 0;
    ++stats_.depth;
    const std::int64_t t0 = wall_ns();
    fn();
    const std::int64_t dt = wall_ns() - t0;
    --stats_.depth;
    stats_.handler_ns[layer] += dt - stats_.child_ns;
    if (stats_.depth == 0) {
      stats_.callback_ns += dt;
      stats_.child_ns = saved_child;
    } else {
      stats_.child_ns = saved_child + dt;
    }
  }

  std::unique_ptr<lls::Actor> inner_;
  Role role_;
  LayerStats& stats_;
  TracingRuntime rt_;
};

/// One span: a named interval, its parent span (0 = root) and, for request
/// spans, the request id (origin, seq). Times are milliseconds on `clock`
/// ("virtual" for the simulator, "wall" for real sockets).
struct Span {
  const char* name = "";
  const char* clock = "virtual";
  double start_ms = 0;
  double end_ms = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t origin = 0;
  std::uint64_t seq = 0;
};

/// In-memory span store, written out once when the benchmark ends. Bounded:
/// past `cap` spans further ones are counted, not kept.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap) : cap_(cap) {}

  std::uint64_t add(Span span) {
    span.id = ++next_id_;
    if (spans_.size() < cap_) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
    return span.id;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// JSONL: one header line, then one object per span. Returns false on an
  /// I/O error.
  bool write_jsonl(const std::string& path, const std::string& header) const;

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Heap allocations made by the calling thread so far (alloc_hook.cc).
std::uint64_t thread_allocs();

}  // namespace perfbench
