// Lightweight metrics: counters and bucketed time series.
//
// The benchmark harness reconstructs the paper's claims from these: e.g.
// "eventually only one process sends messages" is checked by reading the
// per-process send counters over trailing time buckets.
//
// Named-metric registration and the streaming histogram (for latency
// summaries) live in the unified observability plane (src/obs):
// obs::Registry and obs::Histogram.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace lls {

/// Monotone event counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Counts events into fixed-width time buckets, retaining the whole series.
class TimeSeries {
 public:
  explicit TimeSeries(Duration bucket_width) : width_(bucket_width) {}

  void record(TimePoint t, std::uint64_t by = 1) {
    auto idx = static_cast<std::size_t>(t / width_);
    if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
    buckets_[idx] += by;
  }

  [[nodiscard]] Duration bucket_width() const { return width_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }

  /// Sum of the series over [from, to).
  [[nodiscard]] std::uint64_t sum_between(TimePoint from, TimePoint to) const {
    std::uint64_t total = 0;
    auto lo = static_cast<std::size_t>(std::max<TimePoint>(from, 0) / width_);
    auto hi = static_cast<std::size_t>(std::max<TimePoint>(to, 0) / width_);
    for (std::size_t i = lo; i < std::min(hi, buckets_.size()); ++i) {
      total += buckets_[i];
    }
    return total;
  }

 private:
  Duration width_;
  std::vector<std::uint64_t> buckets_;
};

}  // namespace lls
