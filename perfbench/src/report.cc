#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

/// Message types the workloads exchange, named for net.msgs_per_op.<name>.
struct NamedType {
  lls::MessageType type;
  const char* name;
};
constexpr NamedType kTypes[] = {
    {0x0101, "ce_alive"},        {0x0102, "ce_accuse"},
    {0x0120, "cr_leader"},       {0x0121, "cr_recovered"},
    {0x0122, "cr_alive"},        {0x0201, "prepare"},
    {0x0202, "promise"},         {0x0203, "accept"},
    {0x0204, "accepted"},        {0x0205, "nack"},
    {0x0206, "decide"},          {0x0207, "decide_ack"},
    {0x0208, "forward"},         {0x0310, "client_request"},
    {0x0311, "client_reply"},    {0x0312, "client_redirect"},
    {0x0313, "client_busy"},     {0x0314, "client_request_batch"},
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The load phases, timed or not (closed-loop windows are not load phases).
std::vector<const Phase*> select(const RunResult& run, bool timed) {
  std::vector<const Phase*> out;
  for (const Phase& p : run.phases) {
    if (p.timed == timed && !p.closed_loop) out.push_back(&p);
  }
  return out;
}

std::vector<const Phase*> closed_loop_phases(const RunResult& run) {
  std::vector<const Phase*> out;
  for (const Phase& p : run.phases) {
    if (p.closed_loop) out.push_back(&p);
  }
  return out;
}

/// fn over the phases, at percentile pct.
double percentile_of(const std::vector<const Phase*>& phases,
                     double (*fn)(const Phase&), double pct) {
  std::vector<double> v;
  for (const Phase* p : phases) v.push_back(fn(*p));
  return percentile(std::move(v), pct);
}

double raw_ops_per_s(const Phase& p) {
  return ratio(static_cast<double>(p.acked), p.wall_s);
}

double raw_cpu_us_per_op(const Phase& p) {
  return ratio(p.cpu_s * 1e6, static_cast<double>(p.acked));
}

/// Throughput and CPU per op at the reference speed (reference.h): raw in
/// the phases that ran no reference chunks.
double ops_per_s(const Phase& p) {
  return raw_ops_per_s(p) * p.host.slowdown();
}

double cpu_us_per_op(const Phase& p) {
  return raw_cpu_us_per_op(p) / p.host.slowdown();
}

double slowdown(const Phase& p) { return p.host.slowdown(); }

/// Simulator phases share one shape, and the rest of the host only ever
/// slows a phase down (by tens of percent for tens of seconds on a shared
/// host), so throughput, CPU per op and set-up time are read at the run's
/// fast end: the 90th percentile of per-phase throughput and the 10th of
/// CPU per op and of set-up times. Not the extreme, which one lucky phase
/// would set.
constexpr double kFastEnd = 90;

/// setup_s. On UDP the median of the clusters' set-ups, which mostly wait
/// for Ω's first timers. In the simulator the fast end of every set-up the
/// run timed, each read at the reference speed of its phase: one set-up
/// lasts about a millisecond, and over ten runs the median of a run's
/// set-ups spread three times as far as its 10th percentile.
double setup_of(const RunResult& run, bool udp, bool scaled) {
  if (udp) return median(run.setup_s);
  std::vector<double> v;
  for (const Phase& p : run.phases) {
    for (double s : p.setup_s) {
      v.push_back(scaled ? s / p.host.slowdown() : s);
    }
  }
  return percentile(std::move(v), 100 - kFastEnd);
}

/// wall_ops_per_s from per-phase throughput `fn`, at the fast end. On UDP
/// the load phases run at a fixed offered rate, so throughput comes from
/// the closed-loop windows instead (two per cluster).
double throughput_of(const RunResult& run, bool udp,
                     double (*fn)(const Phase&)) {
  return percentile_of(udp ? closed_loop_phases(run) : select(run, false), fn,
                       kFastEnd);
}

/// After a leader crash: the median crash-to-service time. Otherwise: the
/// median, over 500 ms windows, of the longest gap between completions.
double unavailable_ms(const std::vector<const Phase*>& phases) {
  std::vector<double> outages;
  std::vector<double> gaps;
  for (const Phase* p : phases) {
    if (p->unavailable_ms >= 0) outages.push_back(p->unavailable_ms);
    gaps.insert(gaps.end(), p->gap_ms.begin(), p->gap_ms.end());
  }
  return outages.empty() ? median(gaps) : median(outages);
}

/// Process CPU microseconds per acked op over all the phases' loads, each
/// phase's CPU at its reference speed when `scaled`. Used on UDP, whose
/// clusters differ by their own timer alignment rather than by host noise,
/// so all of them count.
double cpu_us(const std::vector<const Phase*>& phases, bool scaled) {
  double acked = 0;
  double cpu = 0;
  for (const Phase* p : phases) {
    acked += static_cast<double>(p->acked);
    cpu += scaled ? p->cpu_s / p->host.slowdown() : p->cpu_s;
  }
  return ratio(cpu * 1e6, acked);
}

/// Op latencies pooled over the phases. UDP latencies are wall time, read
/// at each phase's reference speed when `scaled`; the simulator's are
/// virtual time, which no host changes.
std::vector<double> latencies(const std::vector<const Phase*>& phases, bool udp,
                              bool scaled) {
  std::vector<double> out;
  for (const Phase* p : phases) {
    const double slowdown = udp && scaled ? p->host.slowdown() : 1;
    for (double l : p->latency_ms) out.push_back(l / slowdown);
  }
  return out;
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 of (seed, index): neighbouring seeds share no sub-seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (index + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end_metrics(const RunResult& run, bool udp) {
  const auto phases = select(run, false);
  double consensus_msgs = 0;
  double acked = 0;
  for (const Phase* p : phases) {
    consensus_msgs += static_cast<double>(p->layers.sent_in_block(0x02));
    acked += static_cast<double>(p->acked);
  }
  const double cpu = udp ? cpu_us(phases, true)
                         : percentile_of(phases, cpu_us_per_op, 100 - kFastEnd);
  return {
      {"setup_s", setup_of(run, udp, true), "s"},
      {"wall_ops_per_s", throughput_of(run, udp, ops_per_s), "1/s"},
      {"cpu_us_per_op", cpu, "us"},
      {"p50_ms", percentile(latencies(phases, udp, true), 50), "ms"},
      {"consensus_msgs_per_cmd", ratio(consensus_msgs, acked), "msg/op"},
      {"peak_rss_mb", run.peak_rss_mb >= 0 ? run.peak_rss_mb : peak_rss_mb(),
       "MiB"},
  };
}

std::vector<Metric> tail_metrics(const RunResult& run, bool udp) {
  const auto phases = select(run, false);
  const std::vector<double> latency = latencies(phases, udp, false);
  const double max_rate =
      udp ? run.max_rate_ops_s
          : percentile_of(phases, [](const Phase& p) { return p.peak_rate; }, 50);
  return {
      {"e2e.p99_ms", percentile(latency, 99), "ms"},
      {"e2e.unavailable_ms", unavailable_ms(phases), "ms"},
      {"e2e.max_rate_ops_s", max_rate, "1/s"},
  };
}

std::vector<Metric> context_metrics(const RunResult& run, bool udp) {
  double attempted = 0;
  double failed = 0;
  double samples = 0;
  double acked = 0;
  double gen_cpu_s = 0;
  double gen_wakes = 0;
  for (const Phase& p : run.phases) {
    attempted += static_cast<double>(p.attempted);
    failed += static_cast<double>(p.failed);
    samples += static_cast<double>(p.latency_ms.size());
    if (p.closed_loop) continue;
    acked += static_cast<double>(p.acked);
    gen_cpu_s += p.gen_cpu_s;
    gen_wakes += static_cast<double>(p.gen_wakes);
  }
  // The throughput and CPU figures before scaling to the reference speed,
  // and the median slowdown the reference chunks saw.
  std::vector<const Phase*> sampled;
  for (const Phase& p : run.phases) {
    if (p.host.chunks > 0) sampled.push_back(&p);
  }
  const auto untimed = select(run, false);
  std::vector<Metric> m = {
      {"failed_frac", ratio(failed, attempted), "frac"},
      {"latency_samples", samples, "count"},
      {"phases", static_cast<double>(run.phases.size()), "count"},
      {"raw.setup_s", setup_of(run, udp, false), "s"},
      {"raw.wall_ops_per_s", throughput_of(run, udp, raw_ops_per_s), "1/s"},
      {"raw.cpu_us_per_op",
       udp ? cpu_us(untimed, false)
           : percentile_of(untimed, raw_cpu_us_per_op, 100 - kFastEnd),
       "us"},
      {"raw.p50_ms", percentile(latencies(untimed, udp, false), 50), "ms"},
      {"host.slowdown", percentile_of(sampled, slowdown, 50), "x"}};
  if (udp) {
    // The generator's wakes each cost the client node a recvmmsg and a loop
    // pass, which the runtime.* figures include.
    m.push_back({"gen.wakes_per_op", ratio(gen_wakes, acked), "count"});
    m.push_back({"gen.cpu_us_per_op", ratio(gen_cpu_s * 1e6, acked), "us"});
  }
  return m;
}

std::vector<Metric> per_layer_metrics(const RunResult& run, bool udp) {
  const auto phases = select(run, true);
  LayerStats l;
  Phase sum;  // counters summed over the timed phases
  std::vector<double> gen_late;
  std::vector<double> catchup;
  double wall_ns_total = 0;
  for (const Phase* p : phases) {
    l.add(p->layers);
    sum.acked += p->acked;
    sum.sim_events += p->sim_events;
    sum.bus_events += p->bus_events;
    sum.decisions += p->decisions;
    sum.allocs += p->allocs;
    sum.pool_hits += p->pool_hits;
    sum.pool_misses += p->pool_misses;
    sum.retries += p->retries;
    sum.cached_replies += p->cached_replies;
    sum.client_batches += p->client_batches;
    sum.client_batched_requests += p->client_batched_requests;
    sum.leader_changes += p->leader_changes;
    sum.sendmmsg_calls += p->sendmmsg_calls;
    sum.recvmmsg_calls += p->recvmmsg_calls;
    sum.datagrams_sent += p->datagrams_sent;
    sum.loop_cpu_s += p->loop_cpu_s;
    sum.ctx_switches += p->ctx_switches;
    sum.decide_latency_ms.merge(p->decide_latency_ms);
    sum.stabilization_ms.merge(p->stabilization_ms);
    sum.to_admit_ms.merge(p->to_admit_ms);
    sum.admit_to_apply_ms.merge(p->admit_to_apply_ms);
    sum.apply_to_reply_ms.merge(p->apply_to_reply_ms);
    sum.wall_s += p->wall_s;
    wall_ns_total += p->wall_s * 1e9;
    gen_late.insert(gen_late.end(), p->gen_late_ms.begin(), p->gen_late_ms.end());
    if (p->recovery_catchup_ms >= 0) catchup.push_back(p->recovery_catchup_ms);
  }
  const double ops = static_cast<double>(sum.acked);
  auto per_op = [ops](double v) { return ratio(v, ops); };
  auto us_per_op = [ops](std::int64_t ns) {
    return ratio(static_cast<double>(ns) / 1e3, ops);
  };
  const double consensus = static_cast<double>(l.sent_in_block(0x02));
  const double requests = static_cast<double>(l.sent[0x0310]);

  std::vector<Metric> m;
  m.push_back({"sim.events_per_op", per_op(static_cast<double>(sum.sim_events)),
               "count"});
  m.push_back({"sim.events_per_wall_s",
               ratio(static_cast<double>(sum.sim_events), sum.wall_s), "1/s"});
  m.push_back({"sim.self_us_per_op",
               udp ? 0
                   : us_per_op(static_cast<std::int64_t>(wall_ns_total) -
                               l.callback_ns - l.outside_ns),
               "us"});
  m.push_back({"net.send_us_per_op", us_per_op(l.send_ns), "us"});
  m.push_back({"net.bytes_per_op", per_op(static_cast<double>(l.sent_bytes)),
               "B"});
  for (const NamedType& t : kTypes) {
    m.push_back({std::string("net.msgs_per_op.") + t.name,
                 per_op(static_cast<double>(l.sent[t.type])), "msg/op"});
  }
  m.push_back({"omega.handler_us_per_op", us_per_op(l.handler_ns[kOmega]), "us"});
  m.push_back({"omega.leader_changes",
               ratio(static_cast<double>(sum.leader_changes),
                     static_cast<double>(phases.size())),
               "count"});
  m.push_back({"omega.stabilization_ms", sum.stabilization_ms.mean(), "ms"});
  m.push_back({"consensus.handler_us_per_op", us_per_op(l.handler_ns[kConsensus]),
               "us"});
  m.push_back({"consensus.msgs_per_decision",
               ratio(consensus, static_cast<double>(sum.decisions)), "msg"});
  m.push_back({"consensus.ops_per_decision",
               ratio(ops, static_cast<double>(sum.decisions)), "count"});
  m.push_back({"consensus.decide_latency_ms",
               sum.decide_latency_ms.percentile(50), "ms"});
  m.push_back({"consensus.admit_to_apply_ms",
               sum.admit_to_apply_ms.percentile(50), "ms"});
  m.push_back({"consensus.recovery_catchup_ms", median(catchup), "ms"});
  m.push_back({"rsm.handler_us_per_op", us_per_op(l.handler_ns[kRsm]), "us"});
  m.push_back({"rsm.redirects_per_op", per_op(static_cast<double>(l.sent[0x0312])),
               "count"});
  m.push_back({"rsm.busy_per_op", per_op(static_cast<double>(l.sent[0x0313])),
               "count"});
  m.push_back({"rsm.cached_replies_per_op",
               per_op(static_cast<double>(sum.cached_replies)), "count"});
  m.push_back({"rsm.apply_to_reply_ms", sum.apply_to_reply_ms.percentile(50),
               "ms"});
  m.push_back({"replica.timer_us_per_op", us_per_op(l.handler_ns[kReplicaTimer]),
               "us"});
  m.push_back({"client.handler_us_per_op",
               us_per_op(l.handler_ns[kClient] + l.handler_ns[kClientTimer]), "us"});
  m.push_back({"client.retries_per_op", per_op(static_cast<double>(sum.retries)),
               "count"});
  m.push_back({"client.reqs_per_batch",
               ratio(requests + static_cast<double>(sum.client_batched_requests),
                     requests + static_cast<double>(sum.client_batches)),
               "count"});
  m.push_back({"client.to_admit_ms", sum.to_admit_ms.percentile(50), "ms"});
  m.push_back({"client.gen_late_ms", percentile(gen_late, 99), "ms"});
  m.push_back({"runtime.syscalls_per_op",
               per_op(static_cast<double>(sum.sendmmsg_calls + sum.recvmmsg_calls)),
               "count"});
  m.push_back({"runtime.dgrams_per_sendmmsg",
               ratio(static_cast<double>(sum.datagrams_sent),
                     static_cast<double>(sum.sendmmsg_calls)),
               "count"});
  m.push_back({"runtime.self_us_per_op",
               udp ? std::max(0.0, per_op(sum.loop_cpu_s * 1e6 -
                                          static_cast<double>(l.callback_ns) / 1e3))
                   : 0,
               "us"});
  m.push_back({"runtime.ctx_switches_per_op",
               per_op(static_cast<double>(sum.ctx_switches)), "count"});
  m.push_back({"obs.bus_events_per_op", per_op(static_cast<double>(sum.bus_events)),
               "count"});
  m.push_back({"common.storage_writes_per_op",
               per_op(static_cast<double>(l.storage_writes)), "count"});
  m.push_back({"common.storage_bytes_per_op",
               per_op(static_cast<double>(l.storage_bytes)), "B"});
  m.push_back({"common.storage_us_per_op", us_per_op(l.storage_ns), "us"});
  m.push_back({"common.allocs_per_op", per_op(static_cast<double>(sum.allocs)),
               "count"});
  m.push_back({"common.pool_hit_frac",
               ratio(static_cast<double>(sum.pool_hits),
                     static_cast<double>(sum.pool_hits + sum.pool_misses)),
               "frac"});

  // Tracing overhead: the timed phases against the untimed ones of the
  // same run (on UDP, CPU per op; in the simulator, wall throughput).
  const auto untimed = select(run, false);
  const double overhead =
      udp ? ratio(cpu_us(phases, true), cpu_us(untimed, true)) - 1
          : ratio(percentile_of(untimed, ops_per_s, kFastEnd),
                  percentile_of(phases, ops_per_s, kFastEnd)) - 1;
  m.push_back({"trace.overhead_frac", overhead, "frac"});
  for (Metric& t : tail_metrics(run, udp)) m.push_back(std::move(t));
  return m;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

bool SpanLog::write_jsonl(const std::string& path,
                          const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << header << '\n';
  char line[384];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"clock\":\"%s\",\"start_ms\":%.6f,"
                  "\"end_ms\":%.6f,\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                  ",\"origin\":%u,\"seq\":%" PRIu64 "}\n",
                  s.name, s.clock, s.start_ms, s.end_ms, s.id, s.parent,
                  s.origin, s.seq);
    out << line;
  }
  out << "{\"dropped_spans\":" << dropped_ << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
