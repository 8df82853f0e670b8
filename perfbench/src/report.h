// Turns a run's phases into the named metrics of BENCHMARK.json and prints
// the result line.
#pragma once

#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// End-to-end metrics, from the untimed phases.
std::vector<Metric> end_to_end_metrics(const RunResult& run, bool udp);

/// The client-visible tail and capacity metrics (e2e.p99_ms,
/// e2e.unavailable_ms, e2e.max_rate_ops_s), from the untimed phases. Steady
/// in the simulator but not over real sockets on a shared host, so they
/// carry no bound: traced runs report them with the per-layer metrics and
/// untraced runs print them as context lines.
std::vector<Metric> tail_metrics(const RunResult& run, bool udp);

/// Per-layer metrics, from the timed phases, plus trace.overhead_frac and
/// the tail metrics.
std::vector<Metric> per_layer_metrics(const RunResult& run, bool udp);

/// Context lines printed before the result: failed_frac and the latency
/// sample count, which the result line carries only implicitly, and on UDP
/// the open-loop generator's own wakes and CPU per op.
std::vector<Metric> context_metrics(const RunResult& run, bool udp);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& metrics);

/// Exact percentile with linear interpolation between order statistics.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

}  // namespace perfbench
