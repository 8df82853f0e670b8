// Replicated key-value store over the full paper stack (CE-Omega +
// communication-efficient consensus), running live over UDP sockets on
// localhost, one event-loop thread per replica. Writes are submitted at
// different replicas, the elected leader is stopped mid-workload, and the
// survivors keep serving and converge to identical state. Exits non-zero
// if an operation times out or the survivors do not converge.
//
//   ./examples/replicated_kv [base_port]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rsm/replica.h"
#include "runtime/udp_runtime.h"

using namespace lls;

namespace {

/// Polls `done` every 5 ms for up to three seconds.
bool wait_for(const std::function<bool()>& done) {
  for (int i = 0; i < 600 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

bool submit_and_wait(UdpNode& node, KvOp op, const std::string& key,
                     const std::string& value) {
  auto& replica = static_cast<KvReplica&>(node.actor());
  // Shared with the callback, which may still run after a timeout.
  struct Reply {
    std::atomic<bool> done{false};
    std::string value;
  };
  auto reply = std::make_shared<Reply>();
  node.post([&replica, op, key, value, reply]() {
    replica.submit(op, key, value, "", [reply](const KvResult& r) {
      reply->value = r.value;
      reply->done.store(true);
    });
  });
  const bool ok = wait_for([&]() { return reply->done.load(); });
  std::printf("  [p%u] %s %-10s %-12s -> %s\n", node.id(),
              op == KvOp::kPut ? "PUT" : op == KvOp::kAppend ? "APP" : "GET",
              key.c_str(), value.c_str(),
              ok ? (reply->value.empty() ? "(ok)" : reply->value.c_str())
                 : "TIMEOUT");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kN = 5;
  const auto base =
      static_cast<std::uint16_t>(argc > 1 ? std::atoi(argv[1]) : 47200);
  KvReplica::Options options;
  options.omega.eta = 5 * kMillisecond;
  options.omega.initial_timeout = 20 * kMillisecond;
  options.consensus.retry_period = 10 * kMillisecond;
  std::vector<std::unique_ptr<UdpNode>> nodes;
  for (ProcessId p = 0; p < kN; ++p) {
    UdpNodeConfig cfg;
    cfg.id = p;
    cfg.n = kN;
    cfg.base_port = base;
    cfg.seed = 7;
    nodes.push_back(
        std::make_unique<UdpNode>(cfg, std::make_unique<KvReplica>(options)));
  }
  for (auto& node : nodes) node->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  bool ok = true;
  std::puts("== Writes submitted at different replicas ==");
  ok &= submit_and_wait(*nodes[1], KvOp::kPut, "user:1", "alice");
  ok &= submit_and_wait(*nodes[3], KvOp::kPut, "user:2", "bob");
  ok &= submit_and_wait(*nodes[4], KvOp::kAppend, "audit", "w1;");

  std::puts("\n== Stopping the leader (p0) mid-service ==");
  nodes[0]->stop();
  ok &= submit_and_wait(*nodes[2], KvOp::kPut, "user:3", "carol");
  ok &= submit_and_wait(*nodes[1], KvOp::kAppend, "audit", "w2;");
  ok &= submit_and_wait(*nodes[3], KvOp::kGet, "user:1", "");

  // Convergence check across survivors, read on their loop threads.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::vector<std::uint64_t> digests(kN, 0);
  std::vector<std::uint64_t> applied(kN, 0);
  std::atomic<int> done{0};
  for (ProcessId p = 1; p < kN; ++p) {
    nodes[p]->post([&, p]() {
      auto& replica = static_cast<KvReplica&>(nodes[p]->actor());
      digests[p] = replica.store().digest();
      applied[p] = replica.applied_count();
      done.fetch_add(1);
    });
  }
  const bool answered = wait_for([&]() { return done.load() == kN - 1; });
  for (auto& node : nodes) node->stop();
  if (!answered) {
    std::puts("=> a survivor did not answer the digest read (bug!)");
    return 1;
  }

  std::puts("\n== Survivor states ==");
  bool converged = true;
  for (ProcessId p = 1; p < kN; ++p) {
    std::printf("  p%u: applied=%llu digest=%016llx\n", p,
                static_cast<unsigned long long>(applied[p]),
                static_cast<unsigned long long>(digests[p]));
    converged = converged && digests[p] == digests[1];
  }
  std::puts(converged ? "=> all survivors converged."
                      : "=> NOT converged (bug!)");
  if (!ok) std::puts("=> an operation timed out (bug!)");
  return converged && ok ? 0 : 1;
}
