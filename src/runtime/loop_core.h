// The event loop's scheduling policy, apart from its clock and its socket.
//
// A pass runs the calls posted before it began, then every live timer due
// at its cutoff. Both are snapshots: a call that posts another call, or a
// handler that re-arms its timer as already due, waits for the next pass,
// so every pass ends in bounded work and reaches the flush and the wait
// that follow it. next_wait() then says how long the loop may block: 0
// while calls are pending, else until the earliest live deadline, clamped
// to [0, kMaxWait]. The wait is never rounded down, so each deadline costs
// one wake.
//
// Time is a plain argument: UdpNode passes its steady clock, tests pass
// numbers. post, set_timer and cancel_timer may be called from any thread;
// run_pass and next_wait belong to the loop thread.
#pragma once

#include <functional>
#include <mutex>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace lls {

class LoopCore {
 public:
  /// Longest single wait, so calls posted from other threads (which do not
  /// wake the loop) are picked up promptly.
  static constexpr Duration kMaxWait = 10 * kMillisecond;

  /// Arms a timer due at now + delay (a negative delay counts as 0).
  TimerId set_timer(TimePoint now, Duration delay);
  void cancel_timer(TimerId timer);
  void post(std::function<void()> fn);

  /// Runs the calls posted before this pass, then fire_timer(id) for every
  /// live timer armed before it and due at due_cutoff.
  void run_pass(TimePoint due_cutoff,
                const std::function<void(TimerId)>& fire_timer);

  /// How long the loop may block from `at`.
  [[nodiscard]] Duration next_wait(TimePoint at);

 private:
  struct TimerEntry {
    TimePoint deadline;
    TimerId id;
    bool operator>(const TimerEntry& o) const {
      return deadline > o.deadline || (deadline == o.deadline && id > o.id);
    }
  };

  std::mutex mu_;  // guards timers_, cancelled_, calls_, next_timer_
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;
  std::unordered_set<TimerId> cancelled_;
  std::vector<std::function<void()>> calls_;
  TimerId next_timer_ = 1;
  /// The pass's call snapshot: loop-thread only, kept for its capacity.
  std::vector<std::function<void()>> running_;
};

}  // namespace lls
