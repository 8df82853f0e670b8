// Tests of the UDP runtime and its stats endpoint. The loop's scheduling
// policy is tested in virtual time in loop_core_test.cc.
// Durations are kept short; assertions allow generous scheduling slack.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "net/message.h"
#include "omega/ce_omega.h"
#include "rsm/replica.h"
#include "runtime/udp_runtime.h"

namespace lls {
namespace {

CeOmegaConfig fast_omega() {
  CeOmegaConfig c;
  c.eta = 2 * kMillisecond;
  c.initial_timeout = 8 * kMillisecond;
  c.additive_step = 4 * kMillisecond;
  return c;
}

/// Ω timeouts long enough for a suite that runs real-time tests in parallel.
CeOmegaConfig patient_omega() {
  CeOmegaConfig c;
  c.eta = 5 * kMillisecond;
  c.initial_timeout = 100 * kMillisecond;
  c.additive_step = 20 * kMillisecond;
  return c;
}

LogConsensusConfig fast_log() {
  LogConsensusConfig c;
  c.retry_period = 5 * kMillisecond;
  return c;
}

// --- UDP ---------------------------------------------------------------------

std::uint16_t test_port_base() {
  // Derive from the PID to dodge collisions between parallel test runs.
  return static_cast<std::uint16_t>(30000 + (::getpid() % 20000));
}

/// Runs fn on the node's loop thread and waits for it; false on timeout.
template <typename Fn>
bool on_loop(UdpNode& node, Fn fn) {
  std::atomic<bool> done{false};
  node.post([&]() {
    fn();
    done.store(true);
  });
  for (int i = 0; i < 1000 && !done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done.load();
}

TEST(UdpRuntime, ElectsLeaderOverLocalhost) {
  const int n = 3;
  const std::uint16_t base = test_port_base();
  std::vector<std::unique_ptr<UdpNode>> nodes;
  std::vector<CeOmega*> omegas;
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    auto actor = std::make_unique<CeOmega>(fast_omega());
    omegas.push_back(actor.get());
    UdpNodeConfig cfg;
    cfg.id = p;
    cfg.n = n;
    cfg.base_port = base;
    nodes.push_back(std::make_unique<UdpNode>(cfg, std::move(actor)));
  }
  for (auto& node : nodes) node->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  std::vector<ProcessId> leaders(n, kNoProcess);
  std::atomic<int> done{0};
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    nodes[p]->post([&, p]() {
      leaders[p] = omegas[p]->leader();
      done.fetch_add(1);
    });
  }
  for (int i = 0; i < 200 && done.load() < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& node : nodes) node->stop();
  ASSERT_EQ(done.load(), n);
  EXPECT_EQ(leaders[0], 0u);
  EXPECT_EQ(leaders[1], 0u);
  EXPECT_EQ(leaders[2], 0u);
}

TEST(UdpRuntime, FailsOverAfterLeaderStops) {
  // Three CE-Ω nodes elect p0; once p0's node stops, the survivors agree
  // on p1.
  const int n = 3;
  const auto base = static_cast<std::uint16_t>(test_port_base() + 15000);
  std::vector<std::unique_ptr<UdpNode>> nodes;
  std::vector<CeOmega*> omegas;
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    auto actor = std::make_unique<CeOmega>(patient_omega());
    omegas.push_back(actor.get());
    UdpNodeConfig cfg;
    cfg.id = p;
    cfg.n = n;
    cfg.base_port = base;
    nodes.push_back(std::make_unique<UdpNode>(cfg, std::move(actor)));
  }
  for (auto& node : nodes) node->start();

  // True when nodes first..n-1 all trust `leader` (read on their loops).
  auto all_trust = [&](ProcessId leader, ProcessId first) {
    for (ProcessId p = first; p < static_cast<ProcessId>(n); ++p) {
      ProcessId seen = kNoProcess;
      if (!on_loop(*nodes[p], [&]() { seen = omegas[p]->leader(); }) ||
          seen != leader) {
        return false;
      }
    }
    return true;
  };
  bool elected = false;
  for (int i = 0; i < 100 && !(elected = all_trust(0, 0)); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(elected);

  nodes[0]->stop();
  bool failed_over = false;
  for (int i = 0; i < 100 && !(failed_over = all_trust(1, 1)); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (auto& node : nodes) node->stop();
  EXPECT_TRUE(failed_over);
}

TEST(UdpRuntime, ReplicatedKvEndToEnd) {
  // A put submitted at one of three KvReplica nodes commits, and every
  // replica's store converges to the same digest.
  const int n = 3;
  const auto base = static_cast<std::uint16_t>(test_port_base() + 3750);
  std::vector<std::unique_ptr<UdpNode>> nodes;
  std::vector<KvReplica*> replicas;
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    auto replica = std::make_unique<KvReplica>(KvReplica::Options{
        .omega = patient_omega(), .consensus = fast_log()});
    replicas.push_back(replica.get());
    UdpNodeConfig cfg;
    cfg.id = p;
    cfg.n = n;
    cfg.base_port = base;
    nodes.push_back(std::make_unique<UdpNode>(cfg, std::move(replica)));
  }
  for (auto& node : nodes) node->start();

  std::atomic<bool> put_done{false};
  nodes[1]->post([&]() {
    replicas[1]->submit(KvOp::kPut, "greeting", "hello", "",
                        [&](const KvResult&) { put_done.store(true); });
  });
  for (int i = 0; i < 1000 && !put_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(put_done.load());

  // Decides reach the followers after the reply: poll until the digests,
  // each read on its node's loop thread, agree.
  std::vector<std::uint64_t> digests(n, 0);
  auto converged = [&]() {
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      if (!on_loop(*nodes[p],
                   [&, p]() { digests[p] = replicas[p]->store().digest(); })) {
        return false;
      }
    }
    return digests[0] == digests[1] && digests[1] == digests[2];
  };
  bool same_state = false;
  for (int i = 0; i < 100 && put_done.load() && !(same_state = converged());
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (auto& node : nodes) node->stop();
  EXPECT_TRUE(same_state);
}

TEST(UdpRuntime, RefusedFrameDropsAloneNotTheQueueBehindIt) {
  // Three frames queued in one callback: [small, oversized, small]. The
  // kernel refuses the middle one (over the UDP datagram limit); only that
  // frame is lost, the one queued behind it still goes out.
  class Burst final : public Actor {
   public:
    void on_start(Runtime& rt) override {
      rt.send(1, 0x0901, Bytes(8));
      rt.send(1, 0x0902, Bytes(kMaxFramePayload + 4096));
      rt.send(1, 0x0903, Bytes(8));
    }
    void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
    void on_timer(Runtime&, TimerId) override {}
  };
  class Sink final : public Actor {
   public:
    void on_start(Runtime&) override {}
    void on_message(Runtime&, ProcessId, MessageType type,
                    BytesView) override {
      if (type == 0x0901) first.store(true);
      if (type == 0x0902) oversized.store(true);
      if (type == 0x0903) last.store(true);
    }
    void on_timer(Runtime&, TimerId) override {}
    std::atomic<bool> first{false};
    std::atomic<bool> oversized{false};
    std::atomic<bool> last{false};
  };
  // Far from ElectsLeaderOverLocalhost's range: ctest runs the two in
  // parallel processes whose PIDs (and so port bases) are often adjacent.
  const auto base = static_cast<std::uint16_t>(test_port_base() + 10000);
  auto sink_owned = std::make_unique<Sink>();
  Sink& sink = *sink_owned;
  UdpNodeConfig cfg;
  cfg.n = 2;
  cfg.base_port = base;
  cfg.id = 1;
  UdpNode receiver(cfg, std::move(sink_owned));
  receiver.start();  // bound before the sender's first flush
  cfg.id = 0;
  UdpNode sender(cfg, std::make_unique<Burst>());
  sender.start();
  for (int i = 0; i < 200 && !(sink.first.load() && sink.last.load()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sender.stop();
  receiver.stop();
  EXPECT_TRUE(sink.first.load());
  EXPECT_FALSE(sink.oversized.load());
  EXPECT_TRUE(sink.last.load());
}

TEST(UdpRuntime, UndecodableFramesAreDroppedNotFatal) {
  // Datagrams with a valid header but a body too short to decode — a
  // truncated ACCEPT (consensus) and a truncated ALIVE (Omega) — are dropped
  // and counted; the cluster keeps its leader and still commits. Timeouts
  // are generous: the suite runs real-time tests in parallel.
  const int n = 3;
  const auto base = static_cast<std::uint16_t>(test_port_base() + 5000);
  std::vector<std::unique_ptr<UdpNode>> nodes;
  std::vector<KvReplica*> replicas;
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    KvReplica::Options options;
    options.omega = patient_omega();
    options.consensus = fast_log();
    auto replica = std::make_unique<KvReplica>(options);
    replicas.push_back(replica.get());
    UdpNodeConfig cfg;
    cfg.id = p;
    cfg.n = n;
    cfg.base_port = base;
    nodes.push_back(std::make_unique<UdpNode>(cfg, std::move(replica)));
  }
  for (auto& node : nodes) node->start();

  // Reads fn(p) on every node's loop thread; false if a node did not answer.
  auto read_all = [&](auto fn, std::vector<std::uint64_t>& out) {
    std::atomic<int> done{0};
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      nodes[p]->post([&, p]() {
        out[p] = fn(p);
        done.fetch_add(1);
      });
    }
    for (int i = 0; i < 1000 && done.load() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return done.load() == n;
  };
  auto leader_of = [&](ProcessId p) -> std::uint64_t {
    return replicas[p]->omega().leader();
  };
  auto rejected_at = [&](ProcessId p) -> std::uint64_t {
    return nodes[p]->obs().registry().counter("udp.frames_rejected").value();
  };
  auto agreed = [&](std::vector<std::uint64_t>& leaders) {
    return read_all(leader_of, leaders) && leaders[0] != kNoProcess &&
           leaders[0] == leaders[1] && leaders[1] == leaders[2];
  };

  std::vector<std::uint64_t> before(n, kNoProcess);
  for (int i = 0; i < 100 && !agreed(before); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(agreed(before));

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  auto send_truncated = [&](ProcessId dst, MessageType type,
                            std::size_t body) {
    std::byte frame[16] = {};
    const auto src = static_cast<std::uint32_t>((dst + 1) % n);
    std::memcpy(frame, &src, sizeof(src));
    std::memcpy(frame + sizeof(src), &type, sizeof(type));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(base + dst));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::sendto(fd, frame, 6 + body, 0, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr));
  };
  std::vector<std::uint64_t> rejected(n, 0);
  auto all_rejected = [&]() {
    return read_all(rejected_at, rejected) && rejected[0] >= 2 &&
           rejected[1] >= 2 && rejected[2] >= 2;
  };
  // Loopback may drop a datagram: resend until every node counted both.
  for (int i = 0; i < 100 && !all_rejected(); ++i) {
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      send_truncated(p, msg_type::kAccept, 5);
      send_truncated(p, msg_type::kCeOmegaAlive, 3);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::close(fd);
  EXPECT_TRUE(all_rejected());

  std::atomic<bool> put_done{false};
  nodes[1]->post([&]() {
    replicas[1]->submit(KvOp::kPut, "after", "garbage", "",
                        [&](const KvResult&) { put_done.store(true); });
  });
  for (int i = 0; i < 1000 && !put_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::vector<std::uint64_t> after(n, kNoProcess);
  const bool still_agreed = agreed(after);
  for (auto& node : nodes) node->stop();
  EXPECT_TRUE(put_done.load());
  EXPECT_TRUE(still_agreed);
  EXPECT_EQ(after, before);
}

/// Arms one timer at start and records that it fired; sends nothing.
class OneShot final : public Actor {
 public:
  explicit OneShot(Duration delay) : delay_(delay) {}
  void on_start(Runtime& rt) override { rt.set_timer(delay_); }
  void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
  void on_timer(Runtime&, TimerId) override { fired.store(true); }
  std::atomic<bool> fired{false};

 private:
  Duration delay_;
};

TEST(UdpRuntime, IdleLoopSleepsUntilItsNextTimer) {
  // A lone node (its peer is never started) re-arms a 3 ms timer; each tick
  // also arms and cancels a 1.5 ms one, which stays at the top of the timer
  // heap until its deadline passes. Sleeping until each deadline costs about
  // one wait per deadline; rounding the wait down to whole ms would re-poll
  // with a zero timeout through the last millisecond before every one.
  class Ticker final : public Actor {
   public:
    void on_start(Runtime& rt) override { arm(rt); }
    void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
    void on_timer(Runtime& rt, TimerId) override {
      if (rt.now() < deadline_) ++early;
      ++ticks;
      arm(rt);
    }
    int ticks = 0;
    int cancels = 0;
    int early = 0;

   private:
    void arm(Runtime& rt) {
      deadline_ = rt.now() + 3 * kMillisecond;
      rt.set_timer(3 * kMillisecond);
      rt.cancel_timer(rt.set_timer(1500 * kMicrosecond));
      ++cancels;
    }
    TimePoint deadline_ = 0;
  };
  auto ticker_owned = std::make_unique<Ticker>();
  Ticker& ticker = *ticker_owned;
  UdpNodeConfig cfg;
  cfg.n = 2;
  cfg.base_port = static_cast<std::uint16_t>(test_port_base() + 12500);
  UdpNode node(cfg, std::move(ticker_owned));
  node.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Read everything on the loop thread, where the ticker and counters live.
  int ticks = 0, cancels = 0, early = 0;
  std::uint64_t polls = 0, idle_us = 0;
  TimePoint elapsed = 0;
  ASSERT_TRUE(on_loop(node, [&]() {
    ticks = ticker.ticks;
    cancels = ticker.cancels;
    early = ticker.early;
    polls = node.obs().registry().counter("udp.poll_calls").value();
    idle_us = node.obs().registry().counter("udp.idle_us").value();
    elapsed = node.now();
  }));
  node.stop();
  // Generous bounds: the suite runs real-time tests in parallel.
  EXPECT_EQ(early, 0);
  EXPECT_GE(ticks, 50);
  EXPECT_LE(polls, static_cast<std::uint64_t>(3 * (ticks + cancels) + 50));
  EXPECT_GE(static_cast<double>(idle_us), 0.5 * static_cast<double>(elapsed));
}

TEST(UdpRuntime, SelfRepostingCallDoesNotStarveTimers) {
  // A posted call that posts itself again, for up to 100 ms, must not keep
  // a 5 ms timer from firing: posted calls drain as a snapshot per pass.
  auto shot_owned = std::make_unique<OneShot>(5 * kMillisecond);
  OneShot& shot = *shot_owned;
  UdpNodeConfig cfg;
  cfg.n = 2;
  cfg.base_port = static_cast<std::uint16_t>(test_port_base() + 7500);
  UdpNode node(cfg, std::move(shot_owned));
  node.start();
  TimePoint give_up = kTimeNever;
  std::atomic<bool> starved{false};
  std::atomic<bool> done{false};
  std::function<void()> repost = [&]() {
    if (give_up == kTimeNever) give_up = node.now() + 100 * kMillisecond;
    if (shot.fired.load()) {
      done.store(true);
    } else if (node.now() >= give_up) {
      starved.store(true);
      done.store(true);
    } else {
      node.post(repost);
    }
  };
  node.post(repost);
  for (int i = 0; i < 1000 && !done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  node.stop();
  EXPECT_TRUE(done.load());
  EXPECT_FALSE(starved.load());
}

// --- Stats endpoint ------------------------------------------------------------

/// A TCP connection to the node's stats server that has sent `GET path`.
int open_scrape(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, request.data(), request.size(), 0) !=
          static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(StatsHttp, AbandonedScrapeDoesNotKillTheNode) {
  // A client that resets the connection after its GET makes the server's
  // writes fail; that must not raise SIGPIPE, which would end the process.
  UdpNodeConfig cfg;
  cfg.n = 2;
  cfg.base_port = static_cast<std::uint16_t>(test_port_base() + 2500);
  cfg.stats_port = kAnyStatsPort;
  UdpNode node(cfg, std::make_unique<OneShot>(kSecond));
  node.start();
  const std::uint16_t port = node.stats_port();
  ASSERT_NE(port, 0);
  for (int i = 0; i < 5; ++i) {
    const int fd = open_scrape(port, "/metrics");
    ASSERT_GE(fd, 0);
    const linger reset{1, 0};  // close() sends RST, not FIN
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
    ::close(fd);
  }
  const int fd = open_scrape(port, "/metrics");
  ASSERT_GE(fd, 0);
  std::string response;
  char buf[4096];
  for (ssize_t got; (got = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    response.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  node.stop();
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("udp_poll_calls"), std::string::npos);
}

}  // namespace
}  // namespace lls
