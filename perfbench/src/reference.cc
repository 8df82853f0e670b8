#include "reference.h"

#include <time.h>

#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace.h"

namespace perfbench {

namespace {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// The reference work, shaped like the stack's: small heap allocations,
/// hash-map updates and a binary heap over a working set of a few MiB. Its
/// state lives on across chunks (one per thread), so every chunk does the
/// same steady-state work.
class ReferenceWork {
 public:
  std::uint64_t chunk() {
    constexpr int kIters = 1000;
    constexpr std::uint64_t kSlots = 32768;
    constexpr std::size_t kHeapCap = 4096;
    std::uint64_t acc = 0;
    for (int i = 0; i < kIters; ++i) {
      x_ ^= x_ << 13;
      x_ ^= x_ >> 7;
      x_ ^= x_ << 17;
      std::string& s = map_[x_ % kSlots];
      s.assign(16 + x_ % 48, static_cast<char>('a' + i % 26));
      heap_.push(x_);
      if (heap_.size() > kHeapCap) {
        acc += heap_.top();
        heap_.pop();
      }
      acc += s.size();
    }
    return acc;
  }

 private:
  std::unordered_map<std::uint64_t, std::string> map_;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>>
      heap_;
  std::uint64_t x_ = 88172645463325252ULL;
};

}  // namespace

void HostSpeed::sample() {
  thread_local ReferenceWork work;
  const std::int64_t w0 = wall_ns();
  const double c0 = thread_cpu_s();
  const std::uint64_t a0 = thread_allocs();
  volatile std::uint64_t sink = work.chunk();
  (void)sink;
  allocs += thread_allocs() - a0;
  cpu_s += thread_cpu_s() - c0;
  wall_s += static_cast<double>(wall_ns() - w0) / 1e9;
  ++chunks;
}

double HostSpeed::slowdown() const {
  if (chunks == 0) return 1;
  return cpu_s / static_cast<double>(chunks) / kReferenceChunkS;
}

}  // namespace perfbench
