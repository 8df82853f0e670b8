// Actor composition: several protocol layers on one process.
//
// A process in this library hosts exactly one Actor; MuxActor lets that
// actor be a stack (e.g. CE-Omega + consensus + RSM). Messages are routed to
// children by message-type range; timers are routed to the child that armed
// them, via a per-child Runtime wrapper that records timer ownership.
#pragma once

#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/actor.h"

namespace lls {

class MuxActor final : public Actor {
 public:
  /// Registers a child handling message types in [lo, hi]. Children are
  /// started in registration order. The child must outlive the mux.
  void add_child(Actor& child, MessageType lo, MessageType hi) {
    children_.push_back(Entry{&child, lo, hi, nullptr});
  }

  void on_start(Runtime& rt) override {
    for (auto& entry : children_) {
      entry.wrapper = std::make_unique<ChildRuntime>(*this, rt, entry.child);
      entry.child->on_start(*entry.wrapper);
    }
  }

  void on_message(Runtime&, ProcessId src, MessageType type,
                  BytesView payload) override {
    for (auto& entry : children_) {
      if (type >= entry.lo && type <= entry.hi) {
        entry.child->on_message(*entry.wrapper, src, type, payload);
        return;
      }
    }
  }

  void on_timer(Runtime&, TimerId timer) override {
    auto it = timer_owner_.find(timer);
    if (it == timer_owner_.end()) return;  // cancelled or unknown
    Actor* owner = it->second;
    timer_owner_.erase(it);
    for (auto& entry : children_) {
      if (entry.child == owner) {
        entry.child->on_timer(*entry.wrapper, timer);
        return;
      }
    }
  }

 private:
  /// Forwards to the real runtime but tags timers with their owner.
  class ChildRuntime final : public Runtime {
   public:
    ChildRuntime(MuxActor& mux, Runtime& base, Actor* owner)
        : mux_(mux), base_(base), owner_(owner) {}

    [[nodiscard]] ProcessId id() const override { return base_.id(); }
    [[nodiscard]] int n() const override { return base_.n(); }
    [[nodiscard]] TimePoint now() const override { return base_.now(); }

    void send(ProcessId dst, MessageType type, BytesView payload) override {
      base_.send(dst, type, payload);
    }

    TimerId set_timer(Duration delay) override {
      TimerId id = base_.set_timer(delay);
      mux_.timer_owner_[id] = owner_;
      return id;
    }

    void cancel_timer(TimerId timer) override {
      mux_.timer_owner_.erase(timer);
      base_.cancel_timer(timer);
    }

    Rng& rng() override { return base_.rng(); }

    [[nodiscard]] StableStorage* storage() override { return base_.storage(); }

    [[nodiscard]] obs::Plane& obs() override { return base_.obs(); }

    [[nodiscard]] BufferPool& pool() override { return base_.pool(); }

   private:
    MuxActor& mux_;
    Runtime& base_;
    Actor* owner_;
  };

  struct Entry {
    Actor* child;
    MessageType lo;
    MessageType hi;
    std::unique_ptr<ChildRuntime> wrapper;
  };

  std::vector<Entry> children_;
  std::unordered_map<TimerId, Actor*> timer_owner_;
};

}  // namespace lls
