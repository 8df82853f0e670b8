// Unit tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/actor.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace lls {
namespace {

/// Records everything that happens to it; scriptable reactions.
class Recorder final : public Actor {
 public:
  struct Received {
    TimePoint t;
    ProcessId src;
    MessageType type;
    std::size_t size;
  };

  void on_start(Runtime& rt) override {
    started_at_ = rt.now();
    if (on_start_fn_) on_start_fn_(rt);
  }

  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override {
    received_.push_back({rt.now(), src, type, payload.size()});
    if (on_message_fn_) on_message_fn_(rt, src);
  }

  void on_timer(Runtime& rt, TimerId timer) override {
    fired_.push_back({rt.now(), timer});
    if (on_timer_fn_) on_timer_fn_(rt, timer);
  }

  std::function<void(Runtime&)> on_start_fn_;
  std::function<void(Runtime&, ProcessId)> on_message_fn_;
  std::function<void(Runtime&, TimerId)> on_timer_fn_;
  TimePoint started_at_ = -1;
  std::vector<Received> received_;
  std::vector<std::pair<TimePoint, TimerId>> fired_;
};

Simulator make_sim(int n, std::uint64_t seed = 1) {
  SimConfig config;
  config.n = n;
  config.seed = seed;
  return Simulator(config, make_all_timely({10, 10}));
}

TEST(Simulator, StartsAllActorsAtTimeZero) {
  auto sim = make_sim(3);
  std::vector<Recorder*> recs;
  for (ProcessId p = 0; p < 3; ++p) recs.push_back(&sim.emplace_actor<Recorder>(p));
  sim.start();
  for (auto* r : recs) EXPECT_EQ(r->started_at_, 0);
}

TEST(Simulator, DeliversMessageWithLinkDelay) {
  auto sim = make_sim(2);
  auto& a = sim.emplace_actor<Recorder>(0);
  auto& b = sim.emplace_actor<Recorder>(1);
  a.on_start_fn_ = [](Runtime& rt) {
    rt.send(1, 7, Bytes(4));
  };
  sim.start();
  sim.run_until(100);
  ASSERT_EQ(b.received_.size(), 1u);
  EXPECT_EQ(b.received_[0].t, 10);  // fixed 10us link delay
  EXPECT_EQ(b.received_[0].src, 0u);
  EXPECT_EQ(b.received_[0].type, 7);
  EXPECT_EQ(b.received_[0].size, 4u);
  EXPECT_TRUE(a.received_.empty());
}

TEST(Simulator, TimerFiresAtRequestedTime) {
  auto sim = make_sim(2);
  auto& a = sim.emplace_actor<Recorder>(0);
  sim.emplace_actor<Recorder>(1);
  a.on_start_fn_ = [](Runtime& rt) { rt.set_timer(250); };
  sim.start();
  sim.run_until(1000);
  ASSERT_EQ(a.fired_.size(), 1u);
  EXPECT_EQ(a.fired_[0].first, 250);
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  auto sim = make_sim(2);
  auto& a = sim.emplace_actor<Recorder>(0);
  sim.emplace_actor<Recorder>(1);
  TimerId id = kInvalidTimer;
  a.on_start_fn_ = [&](Runtime& rt) {
    id = rt.set_timer(100);
    rt.cancel_timer(id);
    rt.set_timer(200);
  };
  sim.start();
  sim.run_until(1000);
  ASSERT_EQ(a.fired_.size(), 1u);
  EXPECT_EQ(a.fired_[0].first, 200);
}

TEST(Simulator, CrashedProcessReceivesNothing) {
  auto sim = make_sim(2);
  auto& a = sim.emplace_actor<Recorder>(0);
  auto& b = sim.emplace_actor<Recorder>(1);
  a.on_start_fn_ = [](Runtime& rt) { rt.set_timer(500); };
  b.on_start_fn_ = [](Runtime& rt) { rt.set_timer(500); };
  sim.crash_at(0, 100);
  sim.start();
  // Send to the crashed process after its crash.
  sim.schedule(200, [&]() {
    // b sends to a via b's runtime — emulate with a timer on b instead.
  });
  b.on_timer_fn_ = [](Runtime& rt, TimerId) { rt.send(0, 1, {}); };
  sim.run_until(2000);
  EXPECT_TRUE(a.fired_.empty());     // timer suppressed by crash
  EXPECT_TRUE(a.received_.empty());  // delivery suppressed by crash
  EXPECT_EQ(b.fired_.size(), 1u);
}

TEST(Simulator, CrashedProcessCannotSend) {
  auto sim = make_sim(2);
  auto& a = sim.emplace_actor<Recorder>(0);
  auto& b = sim.emplace_actor<Recorder>(1);
  a.on_start_fn_ = [](Runtime& rt) { rt.set_timer(50); };
  a.on_timer_fn_ = [](Runtime& rt, TimerId) { rt.send(1, 1, {}); };
  sim.start();
  sim.crash_now(0);
  sim.run_until(1000);
  EXPECT_TRUE(b.received_.empty());
  EXPECT_EQ(sim.network().stats().sent_total(), 0u);
}

TEST(Simulator, ScheduleEveryRepeatsUntilFalse) {
  auto sim = make_sim(2);
  sim.emplace_actor<Recorder>(0);
  sim.emplace_actor<Recorder>(1);
  int calls = 0;
  sim.schedule_every(100, 100, [&]() { return ++calls < 5; });
  sim.start();
  sim.run_until(10'000);
  EXPECT_EQ(calls, 5);
}

TEST(Simulator, EventOrderIsTimeThenFifo) {
  auto sim = make_sim(2);
  sim.emplace_actor<Recorder>(0);
  sim.emplace_actor<Recorder>(1);
  std::vector<int> order;
  sim.schedule(100, [&]() { order.push_back(1); });
  sim.schedule(50, [&]() { order.push_back(0); });
  sim.schedule(100, [&]() { order.push_back(2); });
  sim.start();
  sim.run_until(200);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
  auto sim = make_sim(2);
  sim.emplace_actor<Recorder>(0);
  sim.emplace_actor<Recorder>(1);
  sim.start();
  sim.run_until(12345);
  EXPECT_EQ(sim.now(), 12345);
}

TEST(Simulator, AliveCountTracksCrashes) {
  auto sim = make_sim(3);
  for (ProcessId p = 0; p < 3; ++p) sim.emplace_actor<Recorder>(p);
  sim.crash_at(1, 10);
  sim.start();
  EXPECT_EQ(sim.alive_count(), 3);
  sim.run_until(100);
  EXPECT_EQ(sim.alive_count(), 2);
  EXPECT_FALSE(sim.alive(1));
}

// Determinism: identical (seed, program) must give identical executions.
TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    SimConfig config;
    config.n = 4;
    config.seed = seed;
    Simulator sim(config, make_all_eventually_timely(
                              5000, {10, 100}, {0.3, {10, 5000}}));
    for (ProcessId p = 0; p < 4; ++p) {
      auto& r = sim.emplace_actor<Recorder>(p);
      r.on_start_fn_ = [](Runtime& rt) { rt.set_timer(100); };
      r.on_timer_fn_ = [](Runtime& rt, TimerId) {
        for (ProcessId q = 0; q < 4; ++q) {
          if (q != rt.id()) rt.send(q, 1, {});
        }
        rt.set_timer(100);
      };
    }
    sim.start();
    sim.run_until(50'000);
    return std::make_tuple(sim.events_executed(),
                           sim.network().stats().sent_total(),
                           sim.network().stats().dropped_total());
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(std::get<2>(run(7)), std::get<2>(run(8)));  // seeds matter
}

}  // namespace
}  // namespace lls
