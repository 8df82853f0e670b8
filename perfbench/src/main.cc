// lls_perfbench: runs one benchmark workload and prints its metrics.
//
//   lls_perfbench --workload sim-steady --seed 1 --seconds 10 --trace 0
//
// stdout: a host/build stamp line, one line per metric ("name value unit"),
// and last the result line {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the run's spans to .bench_out/spans-<workload>-<seed>.jsonl).
// Exit status: 0 ok, 1 a correctness check failed (no metrics are
// reported then), 2 usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "report.h"
#include "workload.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: lls_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--source ID]\n"
               "workloads: sim-steady sim-failover sim-durable udp-loopback\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string source = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--source") {
      source = value;
    } else {
      usage();
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      usage();
      return 2;
    }
  }
  if (!have_workload || !perfbench::is_known_workload(config.workload) ||
      config.seconds <= 0) {
    usage();
    return 2;
  }
  const bool udp = config.workload == "udp-loopback";

  std::printf(
      "host {\"nproc\": %ld, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"source\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      source.c_str(), config.workload.c_str(),
      static_cast<unsigned long long>(config.seed), config.seconds,
      config.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::SpanLog spans(1 << 20);
  if (config.trace) config.spans = &spans;
  const perfbench::RunResult run = udp ? perfbench::run_udp_workload(config)
                                       : perfbench::run_sim_workload(config);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const perfbench::Phase& p : run.phases) {
    attempted += p.attempted;
    failed += p.failed;
  }
  if (!run.errors.empty() || attempted == 0) {
    for (const std::string& e : run.errors) {
      std::fprintf(stderr, "correctness: %s\n", e.c_str());
    }
    if (attempted == 0) std::fprintf(stderr, "correctness: no op attempted\n");
    std::printf("%s\n", perfbench::result_line(false, attempted, failed, {})
                            .c_str());
    return 1;
  }

  const auto metrics = config.trace ? perfbench::per_layer_metrics(run, udp)
                                    : perfbench::end_to_end_metrics(run, udp);
  auto context = perfbench::context_metrics(run, udp);
  if (!config.trace) {
    for (auto& m : perfbench::tail_metrics(run, udp)) context.push_back(m);
  }
  for (const auto& m : context) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Per-phase throughput, CPU, p50 and host slowdown, to tell host noise
  // from a real change.
  std::printf("  phases (acked ops/wall s, cpu us/op, p50 ms, slowdown):");
  for (const perfbench::Phase& p : run.phases) {
    std::printf(" %.0f/%.2f/%.4g/%.3f", static_cast<double>(p.acked) / p.wall_s,
                p.cpu_s * 1e6 / static_cast<double>(p.acked),
                perfbench::median(p.latency_ms), p.host.slowdown());
  }
  std::printf("\n");
  for (const auto& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (config.trace) {
    const std::string out_dir = ".bench_out";
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path = out_dir + "/spans-" + config.workload + "-" +
                             std::to_string(config.seed) + ".jsonl";
    const std::string header =
        "{\"workload\":\"" + config.workload + "\",\"seed\":" +
        std::to_string(config.seed) + ",\"source\":\"" + source + "\"}";
    if (spans.write_jsonl(path, header)) {
      std::printf("spans: %zu written to %s (%llu dropped)\n",
                  spans.spans().size(), path.c_str(),
                  static_cast<unsigned long long>(spans.dropped()));
    } else {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
  std::printf("%s\n",
              perfbench::result_line(true, attempted, failed, metrics).c_str());
  return 0;
}
