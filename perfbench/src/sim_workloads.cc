// Simulator workloads: sim-steady, sim-failover and sim-durable.
//
// Each measured phase builds a fresh n=5 cluster plus 64 client sessions on
// the deterministic simulator (all links timely, 0.5-2 ms delay), runs one
// load window, drains, and audits the result. Everything measured on the
// virtual clock is a pure function of the phase's sub-seed; only wall and
// CPU times vary between runs.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/cluster_client.h"
#include "net/topology.h"
#include "obs/span.h"
#include "rsm/replica.h"
#include "sim/simulator.h"
#include "workload.h"

namespace perfbench {

using lls::Duration;
using lls::kMillisecond;
using lls::kSecond;
using lls::ProcessId;
using lls::TimePoint;

namespace {

struct SimSpec {
  bool durable = false;  ///< CrKvReplica, durable log, compaction, follower restart
  bool open_loop = false;
  double per_client_rate = 0;  ///< open loop, ops/s per client
  double write_ratio = 0.5;
  std::size_t max_batch = 1;
  bool crash_leader = false;

  TimePoint load_start = 1 * kSecond;  ///< after the initial election
  Duration warmup = 500 * kMillisecond;
  Duration load = 3 * kSecond;
  Duration crash_after = 500 * kMillisecond;  ///< from load_start
  Duration follower_down_after = 800 * kMillisecond;
  Duration follower_downtime = 800 * kMillisecond;
  Duration compact_period = 200 * kMillisecond;
};

SimSpec spec_for(const std::string& workload) {
  SimSpec s;
  if (workload == "sim-failover") {
    s.open_loop = true;
    s.per_client_rate = 100;  // 6400 ops/s offered, about half of capacity
    s.crash_leader = true;
    // A short window keeps the ops the outage delays a few percent of the
    // sample, so p99 lands inside that tail rather than on its edge.
    s.load = 2 * kSecond;
  } else if (workload == "sim-durable") {
    s.durable = true;
    s.write_ratio = 1.0;
    s.max_batch = 8;
    s.load = 2 * kSecond;
    s.follower_down_after = 600 * kMillisecond;
    s.follower_downtime = 400 * kMillisecond;
  }
  return s;
}

/// Simulated time between reference chunks: a few ms of CPU at the load's
/// pace, so the chunks cost about a tenth of it.
constexpr Duration kHostSampleEvery = 10 * kMillisecond;

/// Bare cluster set-ups timed after each phase (for setup_s).
constexpr int kSetupRepeats = 8;

double ms_of(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

std::uint64_t request_key(ProcessId origin, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(origin) << 40) ^ seq;
}

/// Per-request lifecycle stamps taken from the bus at the admitting leader.
struct Lifecycle {
  TimePoint admit = -1;
  ProcessId admitter = lls::kNoProcess;
  TimePoint apply = -1;
};

std::uint64_t bus_total(const lls::obs::EventBus& bus) {
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < lls::obs::kEventTypeCount; ++t) {
    total += bus.count(static_cast<lls::obs::EventType>(t));
  }
  return total;
}

/// One measured phase on a fresh cluster. `Replica` is KvReplica
/// (crash-stop) or CrKvReplica (crash-recovery, durable). With
/// `setup_only` it returns once the first op is served, with only setup_s.
template <typename Replica>
Phase run_phase(const SimSpec& spec, std::uint64_t seed, bool timed,
                bool setup_only, SpanLog* spans,
                std::vector<std::string>& errors) {
  Phase out;
  out.timed = timed;
  const std::int64_t t_build = wall_ns();

  lls::SimConfig sc;
  sc.n = kSimReplicas + kSimClients;
  sc.seed = seed;
  lls::Simulator sim(sc, lls::make_all_timely({500, 2 * kMillisecond}));
  LayerStats stats;
  stats.timed = timed;

  lls::KvReplicaConfig rc;
  rc.cluster_n = kSimReplicas;
  rc.max_batch = spec.max_batch;
  rc.batch_flush_delay = 2 * kMillisecond;
  lls::LogConsensusConfig lc;
  lc.durable = spec.durable;
  auto make_replica = [&stats, rc, lc]() -> std::unique_ptr<lls::Actor> {
    return std::make_unique<TracingActor>(
        std::make_unique<Replica>(typename Replica::Options{
            .omega = {}, .consensus = lc, .replica = rc}),
        Role::kReplica, stats);
  };
  for (ProcessId p = 0; p < kSimReplicas; ++p) {
    if (spec.durable) {
      sim.set_actor_factory(p, make_replica);
    } else {
      sim.set_actor(p, make_replica());
    }
  }
  // Re-fetched on every use: a recovery rebuilds the actor.
  auto replica = [&sim](ProcessId p) -> Replica& {
    return sim.actor_as<TracingActor>(p).inner_as<Replica>();
  };

  lls::ClusterClientConfig cc;
  cc.cluster_n = kSimReplicas;
  cc.window = spec.open_loop ? 4096 : 1;
  std::vector<lls::ClusterClient*> clients;
  for (int c = 0; c < kSimClients; ++c) {
    auto& host = sim.emplace_actor<TracingActor>(
        static_cast<ProcessId>(kSimReplicas + c),
        std::make_unique<lls::ClusterClient>(cc), Role::kClient, stats);
    clients.push_back(&host.inner_as<lls::ClusterClient>());
  }

  const TimePoint load_start = spec.load_start;
  const TimePoint measure_from = load_start + spec.warmup;
  const TimePoint load_end = load_start + spec.load;

  // Traced phases follow each request through the bus: admission at the
  // leader (kClientRequest while it trusts itself), then kApply there.
  std::unordered_map<std::uint64_t, Lifecycle> life;
  lls::obs::Subscription life_sub;
  std::unique_ptr<lls::obs::ElectionSpanTracker> elections;
  if (timed) {
    elections = std::make_unique<lls::obs::ElectionSpanTracker>(
        sim.plane(), kSimReplicas);
    life_sub = sim.plane().bus().subscribe(
        lls::obs::mask_of(lls::obs::EventType::kClientRequest) |
            lls::obs::mask_of(lls::obs::EventType::kApply),
        [&](const lls::obs::Event& e) {
          if (e.peer < kSimReplicas) return;  // not a client session
          if (e.type == lls::obs::EventType::kClientRequest) {
            if (replica(e.process).omega().leader() != e.process) return;
            Lifecycle& rec = life[request_key(e.peer, e.a)];
            if (rec.apply < 0 && rec.admitter != e.process) {
              rec.admit = e.t;
              rec.admitter = e.process;
            }
          } else {
            auto it = life.find(request_key(e.peer, e.a));
            if (it != life.end() && it->second.admitter == e.process &&
                it->second.apply < 0) {
              it->second.apply = e.t;
            }
          }
        });
  }

  // Workload generator. Inputs come from the simulator's misc stream, so
  // they are a function of the seed alone.
  std::uint64_t serial = 0;
  std::vector<std::string> acked_tokens;
  std::vector<TimePoint> completions;  // in the measured window, in order
  TimePoint crash_time = -1;
  TimePoint first_done = -1;
  std::int64_t t_first_done = 0;
  std::function<void(int, TimePoint)> submit;
  submit = [&](int ci, TimePoint due) {
    lls::Rng& rng = sim.rng();
    std::string key = key_name(
        out.attempted, rng.next_below(static_cast<std::uint64_t>(kKeys)));
    const bool write = rng.chance(spec.write_ratio);
    std::string token;
    if (write) {
      char buf[kTokenBytes + 1];
      std::snprintf(buf, sizeof buf, "%04u-%010llu;",
                    static_cast<unsigned>(kSimReplicas + ci) % 10000u,
                    static_cast<unsigned long long>(++serial % 10000000000ULL));
      token = buf;
    }
    ++out.attempted;
    auto done = [&, ci, due, token](const lls::ClientCompletion& c) {
      if (c.timed_out) return;
      ++out.acked;
      if (first_done < 0) {
        first_done = c.completed;
        t_first_done = wall_ns();
      }
      if (!token.empty()) acked_tokens.push_back(token);
      if (due >= measure_from && due < load_end) {
        out.latency_ms.push_back(ms_of(c.completed - due));
      }
      if (c.completed >= measure_from && c.completed < load_end) {
        completions.push_back(c.completed);
      }
      if (crash_time >= 0 && due >= crash_time && out.unavailable_ms < 0) {
        out.unavailable_ms = ms_of(c.completed - crash_time);
      }
      if (timed) {
        auto it = life.find(request_key(c.cmd.origin, c.cmd.seq));
        if (it != life.end()) {
          const Lifecycle& rec = it->second;
          if (due >= measure_from && due < load_end && rec.apply >= 0) {
            out.to_admit_ms.record(ms_of(rec.admit - due));
            out.admit_to_apply_ms.record(ms_of(rec.apply - rec.admit));
            out.apply_to_reply_ms.record(ms_of(c.completed - rec.apply));
            if (spans != nullptr) {
              const std::uint64_t root = spans->add(
                  {"request", "virtual", ms_of(due), ms_of(c.completed), 0, 0,
                   c.cmd.origin, c.cmd.seq});
              spans->add({"client.to_admit", "virtual", ms_of(due),
                          ms_of(rec.admit), 0, root, c.cmd.origin, c.cmd.seq});
              spans->add({"consensus.admit_to_apply", "virtual",
                          ms_of(rec.admit), ms_of(rec.apply), 0, root,
                          c.cmd.origin, c.cmd.seq});
              spans->add({"rsm.apply_to_reply", "virtual", ms_of(rec.apply),
                          ms_of(c.completed), 0, root, c.cmd.origin,
                          c.cmd.seq});
            }
          }
          life.erase(it);
        }
      }
      if (!spec.open_loop && sim.now() < load_end) submit(ci, sim.now());
    };
    lls::ClusterClient& client = *clients[static_cast<std::size_t>(ci)];
    if (write) {
      client.submit(lls::KvOp::kAppend, std::move(key), token, "",
                    std::move(done));
    } else {
      client.get(std::move(key), std::move(done));
    }
  };

  if (spec.open_loop) {
    const auto gap =
        static_cast<Duration>(static_cast<double>(kSecond) / spec.per_client_rate);
    for (int c = 0; c < kSimClients; ++c) {
      sim.schedule_every(load_start + (gap * c) / kSimClients, gap,
                         [&, c]() {
                           if (sim.now() >= load_end) return false;
                           submit(c, sim.now());
                           return true;
                         });
    }
  } else {
    sim.schedule(load_start, [&]() {
      for (int c = 0; c < kSimClients; ++c) submit(c, load_start);
    });
  }

  auto leader_view = [&]() -> ProcessId {
    for (ProcessId p = 0; p < kSimReplicas; ++p) {
      if (sim.alive(p)) return replica(p).omega().leader();
    }
    return lls::kNoProcess;
  };
  if (spec.crash_leader) {
    sim.schedule(load_start + spec.crash_after, [&]() {
      const ProcessId leader = leader_view();
      if (leader < kSimReplicas && sim.alive(leader)) {
        sim.crash_now(leader);
        crash_time = sim.now();
      }
    });
  }
  if (spec.durable) {
    // Coordinated compaction to the cluster-wide applied minimum, only while
    // every replica is up (a down replica still needs the prefix).
    sim.schedule_every(load_start, spec.compact_period, [&]() {
      if (sim.now() >= load_end) return false;
      lls::Instance floor = std::numeric_limits<lls::Instance>::max();
      for (ProcessId p = 0; p < kSimReplicas; ++p) {
        if (!sim.alive(p)) return true;
        floor = std::min(floor, replica(p).applied_upto());
      }
      if (floor > 0) {
        for (ProcessId p = 0; p < kSimReplicas; ++p) {
          replica(p).compact_to(floor);
        }
      }
      return true;
    });
    // One follower crashes and recovers mid-load; catch-up ends when it has
    // applied everything the others had applied when it came back.
    sim.schedule(load_start + spec.follower_down_after, [&]() {
      const ProcessId leader = leader_view();
      for (ProcessId p = 0; p < kSimReplicas; ++p) {
        if (p == leader || !sim.alive(p)) continue;
        sim.crash_now(p);
        const TimePoint back = sim.now() + spec.follower_downtime;
        sim.recover_at(p, back);
        auto target = std::make_shared<lls::Instance>(0);
        sim.schedule_every(back, 1 * kMillisecond, [&, p, back, target]() {
          if (*target == 0) {
            for (ProcessId q = 0; q < kSimReplicas; ++q) {
              if (q != p && sim.alive(q)) {
                *target = std::max(*target, replica(q).applied_upto());
              }
            }
          }
          if (replica(p).applied_upto() >= *target ||
              sim.now() >= load_end + 20 * kSecond) {
            out.recovery_catchup_ms = ms_of(sim.now() - back);
            return false;
          }
          return true;
        });
        break;
      }
    });
  }

  auto decided = [&]() {
    lls::Instance d = 0;
    for (ProcessId p = 0; p < kSimReplicas; ++p) {
      if (sim.alive(p)) d = std::max(d, replica(p).consensus().first_unknown());
    }
    return d;
  };

  sim.start();
  sim.run_until(load_start);
  // The simulator's shared frame pool, reached through a started runtime.
  lls::BufferPool& pool = sim.actor_as<TracingActor>(0).runtime().pool();

  const LayerStats stats0 = stats;
  const std::uint64_t events0 = sim.events_executed();
  const std::uint64_t bus0 = bus_total(sim.plane().bus());
  const std::uint64_t leaders0 =
      sim.plane().bus().count(lls::obs::EventType::kLeaderChange);
  const lls::Instance decided0 = decided();
  const std::uint64_t allocs0 = thread_allocs();
  const std::uint64_t hits0 = pool.hits();
  const std::uint64_t misses0 = pool.misses();
  const double cpu0 = process_cpu_s();
  const std::int64_t t_load = wall_ns();

  while (first_done < 0 && sim.now() < load_end && sim.step()) {
  }
  if (first_done >= 0) {
    out.setup_s.push_back(static_cast<double>(t_first_done - t_build) / 1e9);
  }
  if (setup_only) return out;
  // A reference chunk after every kHostSampleEvery of load (reference.h).
  for (TimePoint t = sim.now(); t < load_end;) {
    t = std::min(load_end, t + kHostSampleEvery);
    sim.run_until(t);
    out.host.sample();
  }
  const TimePoint drain_deadline = load_end + 20 * kSecond;
  auto idle = [&]() {
    for (const auto* c : clients) {
      if (c->inflight() != 0 || c->queued() != 0) return false;
    }
    return true;
  };
  while (!idle() && sim.now() < drain_deadline) sim.run_for(20 * kMillisecond);

  const std::int64_t t_end = wall_ns();
  out.cpu_s = process_cpu_s() - cpu0 - out.host.cpu_s;
  out.wall_s = static_cast<double>(t_end - t_load) / 1e9 - out.host.wall_s;
  out.layers = stats.minus(stats0);
  out.sim_events = sim.events_executed() - events0;
  out.bus_events = bus_total(sim.plane().bus()) - bus0;
  out.leader_changes =
      sim.plane().bus().count(lls::obs::EventType::kLeaderChange) - leaders0;
  out.decisions = decided() - decided0;
  out.allocs = thread_allocs() - allocs0 - out.host.allocs;
  out.pool_hits = pool.hits() - hits0;
  out.pool_misses = pool.misses() - misses0;
  out.failed = out.attempted - out.acked;
  constexpr Duration kSlice = 100 * kMillisecond;
  std::size_t first = 0;
  std::size_t most = 0;
  for (std::size_t last = 0; last < completions.size(); ++last) {
    while (completions[last] - completions[first] >= kSlice) ++first;
    most = std::max(most, last - first + 1);
  }
  out.peak_rate = static_cast<double>(most) * kSecond / kSlice;
  for (Duration gap : window_gaps(completions, measure_from, load_end,
                                  500 * kMillisecond)) {
    out.gap_ms.push_back(ms_of(gap));
  }
  for (const auto* c : clients) {
    out.retries += c->retries();
    out.client_batches += c->batches_sent();
    out.client_batched_requests += c->batched_requests();
  }
  out.decide_latency_ms =
      sim.plane().registry().histogram("consensus_decide_latency_ms");
  out.stabilization_ms =
      sim.plane().registry().histogram("election_stabilization_ms");

  // Settle past one retransmit period so the final decisions reach every
  // follower, then audit: digests agree, and every acked token is applied
  // exactly once on every live replica.
  sim.run_for(100 * kMillisecond);
  auto fail = [&errors, seed](const std::string& what) {
    errors.push_back("seed " + std::to_string(seed) + ": " + what);
  };
  if (!idle()) fail("clients did not drain");
  if (spec.crash_leader && crash_time < 0) fail("no leader to crash");
  if (crash_time >= 0 && out.unavailable_ms < 0) {
    fail("no op completed after the leader crash");
  }
  if (spec.durable && out.recovery_catchup_ms < 0) {
    fail("restarted follower never recovered");
  }
  std::uint64_t digest = 0;
  bool have_digest = false;
  for (ProcessId p = 0; p < kSimReplicas; ++p) {
    if (!sim.alive(p)) continue;
    Replica& r = replica(p);
    out.cached_replies += r.cached_replies_sent();
    if (!have_digest) {
      digest = r.store().digest();
      have_digest = true;
    } else if (r.store().digest() != digest) {
      fail("replica " + std::to_string(p) + " store digest diverges");
    }
    std::unordered_map<std::string, int> census;
    for (const auto& [key, value] : r.store().data()) {
      if (value.size() % kTokenBytes != 0) {
        fail("replica " + std::to_string(p) + " key " + key +
             " holds a torn token");
        continue;
      }
      for (std::size_t i = 0; i < value.size(); i += kTokenBytes) {
        ++census[value.substr(i, kTokenBytes)];
      }
    }
    std::size_t dups = 0;
    for (const auto& [token, count] : census) dups += count > 1 ? 1 : 0;
    if (dups > 0) {
      fail("replica " + std::to_string(p) + ": " + std::to_string(dups) +
           " tokens applied more than once");
    }
    std::size_t lost = 0;
    for (const std::string& token : acked_tokens) {
      lost += census.count(token) == 0 ? 1 : 0;
    }
    if (lost > 0) {
      fail("replica " + std::to_string(p) + ": " + std::to_string(lost) +
           " acked writes missing");
    }
  }
  if (!have_digest) fail("no live replica to audit");
  if (out.acked == 0) fail("no op completed");

  if (spans != nullptr) {
    const double build_ms = 0;
    const double load_ms = static_cast<double>(t_load - t_build) / 1e6;
    const double end_ms = static_cast<double>(t_end - t_build) / 1e6;
    const std::uint64_t root =
        spans->add({"phase", "wall", build_ms, end_ms, 0, 0, 0, seed});
    spans->add({"phase.setup", "wall", build_ms,
                static_cast<double>(t_first_done - t_build) / 1e6, 0, root, 0,
                seed});
    spans->add({"phase.load", "wall", load_ms, end_ms, 0, root, 0, seed});
  }
  return out;
}

}  // namespace

bool is_known_workload(const std::string& name) {
  return name == "sim-steady" || name == "sim-failover" ||
         name == "sim-durable" || name == "udp-loopback";
}

RunResult run_sim_workload(const RunConfig& config) {
  const SimSpec spec = spec_for(config.workload);
  RunResult result;
  const std::int64_t t0 = wall_ns();
  const auto budget_ns = static_cast<std::int64_t>(config.seconds * 1e9);
  // At least three phases (four when traced, so twins stay paired), then
  // more while the next one (pair) fits the budget at the phases' mean
  // length: a tiny budget gives exactly the minimum.
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t elapsed = wall_ns() - t0;
    const std::int64_t next =
        i == 0 ? 0 : elapsed / static_cast<std::int64_t>(i) * (config.trace ? 2 : 1);
    if (i >= 3 && (!config.trace || i % 2 == 0) && elapsed + next > budget_ns) {
      break;
    }
    // A traced run replays every sub-seed twice, untimed then timed: the
    // untimed twin is the baseline for trace.overhead_frac.
    const bool timed = config.trace && i % 2 == 1;
    const std::uint64_t seed = sub_seed(config.seed, config.trace ? i / 2 : i);
    auto run = [&](bool timed_run, bool setup_only) {
      SpanLog* spans = setup_only ? nullptr : config.spans;
      return spec.durable
                 ? run_phase<lls::CrKvReplica>(spec, seed, timed_run, setup_only,
                                               spans, result.errors)
                 : run_phase<lls::KvReplica>(spec, seed, timed_run, setup_only,
                                             spans, result.errors);
    };
    Phase measured = run(timed, false);
    // One set-up takes about a millisecond, short enough for passing host
    // noise to double it, so each phase times a few more.
    for (int k = 0; k < kSetupRepeats; ++k) {
      for (double s : run(false, true).setup_s) measured.setup_s.push_back(s);
    }
    result.phases.push_back(std::move(measured));
  }
  return result;
}

}  // namespace perfbench
