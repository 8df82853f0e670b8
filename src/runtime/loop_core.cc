#include "runtime/loop_core.h"

#include <algorithm>

namespace lls {

TimerId LoopCore::set_timer(TimePoint now, Duration delay) {
  std::scoped_lock lock(mu_);
  TimerId tid = next_timer_++;
  timers_.push(TimerEntry{now + (delay < 0 ? 0 : delay), tid});
  return tid;
}

void LoopCore::cancel_timer(TimerId timer) {
  std::scoped_lock lock(mu_);
  if (timer != kInvalidTimer) cancelled_.insert(timer);
}

void LoopCore::post(std::function<void()> fn) {
  std::scoped_lock lock(mu_);
  calls_.push_back(std::move(fn));
}

void LoopCore::run_pass(TimePoint due_cutoff,
                        const std::function<void(TimerId)>& fire_timer) {
  TimerId armed_before = kInvalidTimer;
  {
    std::scoped_lock lock(mu_);
    running_.swap(calls_);
    armed_before = next_timer_;
  }
  for (auto& call : running_) call();
  running_.clear();  // keeps its capacity for the next swap
  std::vector<TimerEntry> held;
  for (;;) {
    TimerId due = kInvalidTimer;
    {
      std::scoped_lock lock(mu_);
      if (timers_.empty() || timers_.top().deadline > due_cutoff) break;
      const TimerEntry top = timers_.top();
      timers_.pop();
      if (auto it = cancelled_.find(top.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;  // swallowed
      }
      if (top.id >= armed_before) {
        // Armed during this pass and already due (the clock may not have
        // moved): firing it now could re-arm it forever.
        held.push_back(top);
        continue;
      }
      due = top.id;
    }
    fire_timer(due);
  }
  if (!held.empty()) {
    std::scoped_lock lock(mu_);
    for (const TimerEntry& entry : held) timers_.push(entry);
  }
}

Duration LoopCore::next_wait(TimePoint at) {
  std::scoped_lock lock(mu_);
  if (!calls_.empty()) return 0;
  // A cancelled deadline must not wake the loop: CE-Ω followers cancel and
  // re-arm their leader timer on every ALIVE.
  while (!timers_.empty()) {
    auto it = cancelled_.find(timers_.top().id);
    if (it == cancelled_.end()) break;
    cancelled_.erase(it);
    timers_.pop();
  }
  if (timers_.empty()) return kMaxWait;
  return std::clamp<Duration>(timers_.top().deadline - at, 0, kMaxWait);
}

}  // namespace lls
