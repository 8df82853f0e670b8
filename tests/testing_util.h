// Test doubles shared by the unit-test suites.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/actor.h"
#include "common/storage.h"

namespace lls::testing {

/// Hand-cranked Runtime: records sends, lets tests fire timers explicitly
/// and advance the clock. Used to unit-test protocol state machines without
/// a simulator.
class FakeRuntime final : public Runtime {
 public:
  struct Sent {
    ProcessId dst;
    MessageType type;
    Bytes payload;
  };

  FakeRuntime(ProcessId id, int n) : id_(id), n_(n), rng_(id + 1) {}

  [[nodiscard]] ProcessId id() const override { return id_; }
  [[nodiscard]] int n() const override { return n_; }
  [[nodiscard]] TimePoint now() const override { return now_; }

  void send(ProcessId dst, MessageType type, BytesView payload) override {
    sent_.push_back({dst, type, Bytes(payload.begin(), payload.end())});
  }

  TimerId set_timer(Duration delay) override {
    TimerId id = next_timer_++;
    timers_[id] = now_ + delay;
    return id;
  }

  void cancel_timer(TimerId timer) override { timers_.erase(timer); }

  Rng& rng() override { return rng_; }

  // Test controls -----------------------------------------------------------
  void advance(Duration d) { now_ += d; }

  [[nodiscard]] const std::vector<Sent>& sent() const { return sent_; }
  void clear_sent() { sent_.clear(); }

  [[nodiscard]] std::size_t pending_timers() const { return timers_.size(); }

  [[nodiscard]] bool timer_pending(TimerId id) const {
    return timers_.contains(id);
  }

  /// Fires the earliest pending timer on `actor`, advancing the clock to its
  /// deadline; `via` (default: this) is the runtime the actor sees. Returns
  /// false if no timer is pending.
  bool fire_next_timer(Actor& actor, Runtime* via = nullptr) {
    if (timers_.empty()) return false;
    auto best = timers_.begin();
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (it->second < best->second) best = it;
    }
    TimerId id = best->first;
    if (best->second > now_) now_ = best->second;
    timers_.erase(best);
    actor.on_timer(via != nullptr ? *via : *this, id);
    return true;
  }

  /// Fires a specific timer (test must know it is pending).
  void fire_timer(Actor& actor, TimerId id) {
    timers_.erase(id);
    actor.on_timer(*this, id);
  }

  /// Messages of `type` sent to `dst`.
  [[nodiscard]] int count_sent(ProcessId dst, MessageType type) const {
    int count = 0;
    for (const auto& s : sent_) {
      if (s.dst == dst && s.type == type) ++count;
    }
    return count;
  }

 private:
  ProcessId id_;
  int n_;
  TimePoint now_ = 0;
  std::vector<Sent> sent_;
  std::map<TimerId, TimePoint> timers_;
  TimerId next_timer_ = 1;
  Rng rng_;
};

/// FakeRuntime with stable storage that outlives the actors started on it
/// (a test "crashes" an actor by building a fresh one over the same
/// runtime). `Storage` is any StableStorage (see DurableFakeRuntime).
template <typename Storage>
class BasicDurableFakeRuntime final : public Runtime {
 public:
  BasicDurableFakeRuntime(ProcessId id, int n) : inner_(id, n) {}
  [[nodiscard]] ProcessId id() const override { return inner_.id(); }
  [[nodiscard]] int n() const override { return inner_.n(); }
  [[nodiscard]] TimePoint now() const override { return inner_.now(); }
  void send(ProcessId dst, MessageType type, BytesView payload) override {
    inner_.send(dst, type, payload);
  }
  TimerId set_timer(Duration delay) override { return inner_.set_timer(delay); }
  void cancel_timer(TimerId timer) override { inner_.cancel_timer(timer); }
  Rng& rng() override { return inner_.rng(); }
  [[nodiscard]] StableStorage* storage() override { return &storage_; }

  bool fire_next_timer(Actor& actor) {
    return inner_.fire_next_timer(actor, this);
  }

  FakeRuntime inner_;
  Storage storage_;
};

using DurableFakeRuntime = BasicDurableFakeRuntime<InMemoryStableStorage>;

/// In-memory storage that calls `after_write` after every write, so a test
/// can check what a restart would restore at exactly that point.
class HookedStorage final : public StableStorage {
 public:
  void write(const std::string& key, BytesView value) override {
    data.write(key, value);
    if (after_write) after_write();
  }
  [[nodiscard]] std::optional<Bytes> read(const std::string& key) override {
    return data.read(key);
  }

  InMemoryStableStorage data;
  std::function<void()> after_write;
};

/// Transparent wrapper: forwards every callback to an owned inner actor
/// and records, per received message type, the frame count and the largest
/// payload seen — a receive-side tap for wire-format assertions.
class RecvTap final : public Actor {
 public:
  struct Seen {
    std::uint64_t count = 0;
    std::size_t max_bytes = 0;
  };

  explicit RecvTap(std::unique_ptr<Actor> inner) : inner_(std::move(inner)) {}

  void on_start(Runtime& rt) override { inner_->on_start(rt); }
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override {
    Seen& s = seen_[type];
    ++s.count;
    s.max_bytes = std::max(s.max_bytes, payload.size());
    inner_->on_message(rt, src, type, payload);
  }
  void on_timer(Runtime& rt, TimerId timer) override {
    inner_->on_timer(rt, timer);
  }

  template <typename T>
  T& inner_as() {
    return static_cast<T&>(*inner_);
  }
  [[nodiscard]] Seen seen(MessageType type) const {
    auto it = seen_.find(type);
    return it == seen_.end() ? Seen{} : it->second;
  }

 private:
  std::unique_ptr<Actor> inner_;
  std::map<MessageType, Seen> seen_;
};

}  // namespace lls::testing
