// Counts global operator new calls per thread, for common.allocs_per_op.
// A thread-local counter keeps the UDP loop threads off a shared cache line.
// Deletes stay plain free(): counting frees adds nothing to the metric.
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

std::uint64_t thread_allocs() { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  ++perfbench::t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++perfbench::t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
