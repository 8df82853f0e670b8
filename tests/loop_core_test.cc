// LoopCore's scheduling rules, driven in virtual time: every test passes
// the clock as a number and runs each pass by hand, so there are no sleeps,
// no threads and no scheduling slack.
#include "runtime/loop_core.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace lls {
namespace {

/// A fire_timer callback that records the timers it is handed.
std::function<void(TimerId)> record(std::vector<TimerId>& fired) {
  return [&fired](TimerId timer) { fired.push_back(timer); };
}

TEST(LoopCore, SelfRepostingCallRunsOncePerPassAndDueTimersStillFire) {
  LoopCore loop;
  int runs = 0;
  std::function<void()> repost = [&]() {
    if (++runs < 1000) loop.post(repost);
  };
  loop.post(repost);
  const TimerId timer = loop.set_timer(0, 5);
  std::vector<TimerId> fired;
  loop.run_pass(5, record(fired));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(fired, std::vector<TimerId>{timer});
  loop.run_pass(6, record(fired));
  EXPECT_EQ(runs, 2);
}

TEST(LoopCore, TimerReArmedAsDueWaitsForTheNextPass) {
  LoopCore loop;
  loop.set_timer(0, 10);
  int fires = 0;
  // The clock does not move during the pass: the re-armed timer is due at
  // the pass's own cutoff.
  const std::function<void(TimerId)> rearm = [&](TimerId) {
    if (++fires < 1000) loop.set_timer(10, 0);
  };
  loop.run_pass(10, rearm);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(loop.next_wait(10), 0);  // held back, not lost
  loop.run_pass(10, rearm);
  EXPECT_EQ(fires, 2);
}

TEST(LoopCore, TimerFiresInThePassWhoseCutoffReachesItsDeadline) {
  LoopCore loop;
  const TimerId timer = loop.set_timer(100, 50);
  std::vector<TimerId> fired;
  loop.run_pass(149, record(fired));
  EXPECT_TRUE(fired.empty());
  loop.run_pass(150, record(fired));
  EXPECT_EQ(fired, std::vector<TimerId>{timer});
}

TEST(LoopCore, CancelledTimerDoesNotFire) {
  LoopCore loop;
  const TimerId cancelled = loop.set_timer(0, 1);
  const TimerId live = loop.set_timer(0, 2);
  loop.cancel_timer(cancelled);
  std::vector<TimerId> fired;
  loop.run_pass(2, record(fired));
  EXPECT_EQ(fired, std::vector<TimerId>{live});
}

TEST(LoopCore, NextWaitIsClampedTimeToTheEarliestDeadline) {
  LoopCore loop;
  EXPECT_EQ(loop.next_wait(0), LoopCore::kMaxWait);  // no timers
  loop.set_timer(0, 3 * kMillisecond);
  EXPECT_EQ(loop.next_wait(0), 3 * kMillisecond);
  EXPECT_EQ(loop.next_wait(5 * kMillisecond), 0);  // overdue
  EXPECT_EQ(loop.next_wait(-LoopCore::kMaxWait), LoopCore::kMaxWait);
  loop.post([]() {});
  EXPECT_EQ(loop.next_wait(0), 0);  // a call is pending
}

TEST(LoopCore, CancelledDeadlineDoesNotShortenTheWait) {
  LoopCore loop;
  loop.cancel_timer(loop.set_timer(0, 1 * kMillisecond));
  loop.set_timer(0, 5 * kMillisecond);
  EXPECT_EQ(loop.next_wait(0), 5 * kMillisecond);
}

}  // namespace
}  // namespace lls
