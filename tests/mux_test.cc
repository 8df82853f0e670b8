// Tests of MuxActor: message routing by type range, timer ownership, and
// pass-through of Runtime services to children.
#include <gtest/gtest.h>

#include "common/mux.h"
#include "testing_util.h"

namespace lls {
namespace {

using testing::FakeRuntime;

class Child final : public Actor {
 public:
  void on_start(Runtime& rt) override {
    started = true;
    id_seen = rt.id();
    if (arm_timer_on_start) timer = rt.set_timer(100);
  }
  void on_message(Runtime&, ProcessId src, MessageType type,
                  BytesView) override {
    messages.emplace_back(src, type);
  }
  void on_timer(Runtime& rt, TimerId t) override {
    fired.push_back(t);
    if (rearm) timer = rt.set_timer(100);
  }

  bool arm_timer_on_start = false;
  bool rearm = false;
  bool started = false;
  ProcessId id_seen = kNoProcess;
  TimerId timer = kInvalidTimer;
  std::vector<std::pair<ProcessId, MessageType>> messages;
  std::vector<TimerId> fired;
};

TEST(Mux, StartsChildrenInOrderWithBaseIdentity) {
  Child a;
  Child b;
  MuxActor mux;
  mux.add_child(a, 0x0100, 0x01ff);
  mux.add_child(b, 0x0200, 0x02ff);
  FakeRuntime rt(3, 5);
  mux.on_start(rt);
  EXPECT_TRUE(a.started);
  EXPECT_TRUE(b.started);
  EXPECT_EQ(a.id_seen, 3u);
  EXPECT_EQ(b.id_seen, 3u);
}

TEST(Mux, RoutesMessagesByTypeRange) {
  Child a;
  Child b;
  MuxActor mux;
  mux.add_child(a, 0x0100, 0x01ff);
  mux.add_child(b, 0x0200, 0x02ff);
  FakeRuntime rt(0, 3);
  mux.on_start(rt);
  mux.on_message(rt, 1, 0x0150, {});
  mux.on_message(rt, 2, 0x0200, {});
  mux.on_message(rt, 1, 0x0300, {});  // nobody's range: dropped
  ASSERT_EQ(a.messages.size(), 1u);
  EXPECT_EQ(a.messages[0], std::make_pair(ProcessId{1}, MessageType{0x0150}));
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0], std::make_pair(ProcessId{2}, MessageType{0x0200}));
}

TEST(Mux, RangeBoundariesAreInclusive) {
  Child a;
  MuxActor mux;
  mux.add_child(a, 0x0100, 0x01ff);
  FakeRuntime rt(0, 3);
  mux.on_start(rt);
  mux.on_message(rt, 1, 0x0100, {});
  mux.on_message(rt, 1, 0x01ff, {});
  mux.on_message(rt, 1, 0x00ff, {});
  mux.on_message(rt, 1, 0x0200, {});
  EXPECT_EQ(a.messages.size(), 2u);
}

TEST(Mux, TimersRouteToOwningChild) {
  Child a;
  Child b;
  a.arm_timer_on_start = true;
  b.arm_timer_on_start = true;
  MuxActor mux;
  mux.add_child(a, 0x0100, 0x01ff);
  mux.add_child(b, 0x0200, 0x02ff);
  FakeRuntime rt(0, 3);
  mux.on_start(rt);
  ASSERT_NE(a.timer, b.timer);
  rt.fire_timer(mux, a.timer);
  EXPECT_EQ(a.fired.size(), 1u);
  EXPECT_TRUE(b.fired.empty());
  rt.fire_timer(mux, b.timer);
  EXPECT_EQ(b.fired.size(), 1u);
}

TEST(Mux, UnknownAndStaleTimersAreIgnored) {
  Child c;
  c.arm_timer_on_start = true;
  MuxActor mux;
  mux.add_child(c, 0x0100, 0x01ff);
  FakeRuntime rt(0, 3);
  mux.on_start(rt);
  mux.on_timer(rt, c.timer + 1234);  // unknown timer id: ignored
  EXPECT_TRUE(c.fired.empty());
  rt.fire_timer(mux, c.timer);
  EXPECT_EQ(c.fired.size(), 1u);
  // A second fire of the same id is stale (ownership consumed): ignored.
  mux.on_timer(rt, c.timer);
  EXPECT_EQ(c.fired.size(), 1u);
}

TEST(Mux, ChildRearmedTimerKeepsWorking) {
  Child a;
  a.arm_timer_on_start = true;
  a.rearm = true;
  MuxActor mux;
  mux.add_child(a, 0x0100, 0x01ff);
  FakeRuntime rt(0, 3);
  mux.on_start(rt);
  for (int i = 0; i < 5; ++i) {
    TimerId current = a.timer;
    rt.fire_timer(mux, current);
  }
  EXPECT_EQ(a.fired.size(), 5u);
}

TEST(Mux, ChildSendsPassThrough) {
  class Sender final : public Actor {
   public:
    void on_start(Runtime& rt) override { rt.send(2, 0x0155, {}); }
    void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
    void on_timer(Runtime&, TimerId) override {}
  };
  Sender s;
  MuxActor mux;
  mux.add_child(s, 0x0100, 0x01ff);
  FakeRuntime rt(0, 3);
  mux.on_start(rt);
  EXPECT_EQ(rt.count_sent(2, 0x0155), 1);
}

TEST(Mux, ChildRuntimeForwardsPoolAndPlaneToBase) {
  // Wrapper runtimes must forward pool() and obs(): a child encoding into a
  // private fallback pool would recycle nothing and hide its hits and
  // misses from the base's accounting.
  class Probe final : public Actor {
   public:
    void on_start(Runtime& rt) override {
      pool = &rt.pool();
      plane = &rt.obs();
    }
    void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
    void on_timer(Runtime&, TimerId) override {}
    BufferPool* pool = nullptr;
    obs::Plane* plane = nullptr;
  };
  Probe p;
  MuxActor mux;
  mux.add_child(p, 0x0100, 0x01ff);
  FakeRuntime rt(0, 3);
  mux.on_start(rt);
  EXPECT_EQ(p.pool, &rt.pool());
  EXPECT_EQ(p.plane, &rt.obs());
}

}  // namespace
}  // namespace lls
