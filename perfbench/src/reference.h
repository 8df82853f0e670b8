// Host speed: a fixed chunk of reference work, timed beside the load, so
// that wall and CPU figures can be read at one reference speed.
//
// On a shared host the same code runs tens of percent slower for minutes
// at a time while neighbours load the machine (caches, memory bandwidth,
// sibling hyperthreads); fast-end percentiles over one run's phases cannot
// remove a slowdown that lasts the whole run. So a run interleaves small
// chunks of reference work with its load, on the thread that drives it, and
// divides its CPU figures (multiplies its throughput) by the chunks' mean
// time over kReferenceChunkS. The reference work shares no code with the
// stack: a change to the stack moves the scaled figures exactly as it moves
// the raw ones, while a slower host moves both the chunks and the load.
#pragma once

#include <cstdint>

namespace perfbench {

/// The reference speed: one chunk's CPU time, about what it takes beside
/// the load on a 4-vCPU Xeon VM under everyday shared load, so scaled
/// figures read close to raw ones there.
inline constexpr double kReferenceChunkS = 400e-6;

/// Reference chunks timed during one phase.
struct HostSpeed {
  double cpu_s = 0;   ///< thread CPU the chunks took
  double wall_s = 0;  ///< wall time they took
  std::uint64_t allocs = 0;  ///< heap allocations they made
  std::uint64_t chunks = 0;

  /// Runs one chunk on the calling thread and times it.
  void sample();

  /// Mean chunk time over kReferenceChunkS: above 1 the host ran slow.
  /// 1 when no chunk ran.
  [[nodiscard]] double slowdown() const;
};

}  // namespace perfbench
