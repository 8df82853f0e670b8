#include "sim/campaign.h"

#include <algorithm>
#include <limits>
#include <cinttypes>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "client/cluster_client.h"
#include "common/rng.h"
#include "consensus/experiment.h"
#include "consensus/node.h"
#include "net/relay.h"
#include "net/topology.h"
#include "omega/all2all_omega.h"
#include "omega/ce_omega.h"
#include "omega/cr_omega.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "rsm/audit.h"
#include "rsm/history.h"
#include "rsm/linearizability.h"
#include "rsm/replica.h"
#include "sim/nemesis.h"
#include "sim/simulator.h"

namespace lls {

const char* scenario_name(Scenario scenario) {
  switch (scenario) {
    case Scenario::kCeOmega: return "ce";
    case Scenario::kAll2AllOmega: return "all2all";
    case Scenario::kCrOmegaStable: return "cr";
    case Scenario::kConsensus: return "consensus";
    case Scenario::kKvLinearizable: return "kv";
    case Scenario::kClientSession: return "client";
  }
  return "?";
}

bool parse_scenario(const std::string& name, Scenario* out) {
  for (Scenario s : kAllScenarios) {
    if (name == scenario_name(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

namespace {

/// The ♦-source for the system-S scenarios. Protected from crash-stop: the
/// liveness premises require at least one correct ♦-source.
ProcessId source_of(const CampaignConfig& config) {
  return static_cast<ProcessId>(config.n - 1);
}

LinkFactory system_s_links(const CampaignConfig& config) {
  SystemSParams params;
  params.sources = {source_of(config)};
  params.gst = 500 * kMillisecond;
  return make_system_s(params);
}

CeOmegaConfig ce_config(const CampaignConfig& config) {
  CeOmegaConfig oc;
  if (config.sabotage) {
    // Timeout below the heartbeat period and no adaptation: every leader is
    // perpetually accused and elections flap forever. NOT zero — a zero
    // timeout with no adaptation would re-arm at the same virtual instant
    // and the event loop would never advance time.
    oc.initial_timeout = oc.eta / 2;
    oc.timeout_policy = CeOmegaConfig::TimeoutPolicy::kNone;
  }
  return oc;
}

/// Crash accounting cross-check: every kill Nemesis reports must be dead in
/// the simulator, and kills never exceed a strict minority.
void check_kill_accounting(const Simulator& sim, const Nemesis& nemesis,
                           std::vector<std::string>& violations) {
  for (ProcessId p : nemesis.killed()) {
    if (sim.alive(p)) {
      std::ostringstream what;
      what << "correct-set accounting broken: p" << p
           << " is in killed() but alive at horizon";
      violations.push_back(what.str());
    }
  }
  if (static_cast<int>(nemesis.killed().size()) * 2 >= sim.n()) {
    violations.emplace_back("nemesis killed a majority of processes");
  }
}

/// Resolves config.topology, with the optional adversarial schedule
/// applied. nullopt, with a violation added, when the request is invalid.
std::optional<TopologyProfile> topology_profile(
    const CampaignConfig& config, std::vector<std::string>& violations) {
  auto profile = topology_preset(config.topology, config.n);
  if (!profile) {
    violations.push_back("unknown topology preset: " + config.topology +
                         " (n=" + std::to_string(config.n) + ")");
    return std::nullopt;
  }
  if (config.schedule != nullptr) {
    if (config.schedule->topology != config.topology ||
        config.schedule->n != config.n) {
      violations.emplace_back(
          "link schedule does not match the run: schedule is for " +
          config.schedule->topology + "/n=" +
          std::to_string(config.schedule->n));
      return std::nullopt;
    }
    try {
      *profile = apply_schedule(std::move(*profile), *config.schedule);
    } catch (const std::exception& e) {
      violations.emplace_back(std::string("invalid link schedule: ") +
                              e.what());
      return std::nullopt;
    }
  }
  return profile;
}

/// Fetches p's protocol actor, unwrapping the relay envelope when the
/// topology routes over the flood path.
template <typename T>
T& proto_actor(Simulator& sim, ProcessId p, bool relayed) {
  if (relayed) return dynamic_cast<T&>(sim.actor_as<RelayActor>(p).inner());
  return sim.actor_as<T>(p);
}

/// The stores of every alive replica among processes [0, n), in process
/// order, for the KV audit.
template <typename Replica>
std::vector<ReplicaStores> alive_stores(Simulator& sim, int n,
                                        bool relayed = false) {
  std::vector<ReplicaStores> out;
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    if (sim.alive(p)) {
      out.push_back(stores_of(p, proto_actor<Replica>(sim, p, relayed)));
    }
  }
  return out;
}

/// The acceptor bound (DESIGN.md §4): an acceptor keeps accepted pairs for
/// undecided instances only, so each decided value is held once, in the
/// decided log. Flags the first decided instance that p's group `group`
/// still holds a pair for.
void check_acceptor_bound(const LogConsensus& log, ProcessId p, int group,
                          std::vector<std::string>& violations) {
  for (const Acceptor::AcceptedPair& pair : log.acceptor().all_accepted()) {
    if (log.log_state().decided(pair.instance)) {
      violations.push_back("p" + std::to_string(p) + " group " +
                           std::to_string(group) +
                           ": acceptor holds a pair for decided instance " +
                           std::to_string(pair.instance));
      return;
    }
  }
}

/// check_acceptor_bound over every group of every alive replica among
/// processes [0, n).
template <typename Replica>
void check_acceptor_bounds(Simulator& sim, int n, bool relayed,
                           std::vector<std::string>& violations) {
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    if (!sim.alive(p)) continue;
    const Replica& replica = proto_actor<Replica>(sim, p, relayed);
    for (int g = 0; g < replica.shards(); ++g) {
      check_acceptor_bound(replica.group(g).consensus(), p, g, violations);
    }
  }
}

/// Pulls the run's obs-plane histograms into a case or soak result:
/// election stabilization spans plus consensus decide latencies (including
/// the per-shard "_shard<g>" series, merged into one population).
template <typename Result>
void collect_histograms(const Simulator& sim, Result& result) {
  for (const auto& [name, hist] : sim.plane().registry().histograms()) {
    if (name == "election_stabilization_ms") {
      result.stabilization_span_ms.merge(hist);
    } else if (name.rfind("consensus_decide_latency_ms", 0) == 0) {
      result.decide_latency_ms.merge(hist);
    }
  }
}

/// The zero-sources verdict. GrowingSilenceLink delivers timely *between*
/// silence windows, so the election may transiently look settled at the
/// horizon; "never stabilizes" operationally means the cluster was still
/// being disrupted by the last silence window that opened before the
/// horizon: either a span is open, or stability was lost and re-gained at
/// least twice with the latest flip inside that last window.
bool still_flapping(const obs::ElectionSpanTracker& tracker,
                    TimePoint horizon) {
  if (tracker.span_open()) return true;
  const TimePoint last = GrowingSilenceLink::last_silence_start(horizon);
  return tracker.spans_closed() >= 2 && last != kTimeNever &&
         tracker.last_transition() >= last;
}

/// One campaign case as built by run_case, handed to its scenario's hooks.
struct Case {
  Case(const SimConfig& sc, const LinkFactory& links) : sim(sc, links) {}

  /// Actors run behind a RelayActor (the preset routes over the flood path).
  bool relayed = false;
  /// The zero-sources control: the election must never settle.
  bool flapping_control = false;
  /// The processes the nemesis spares.
  std::vector<ProcessId> protect;
  Simulator sim;
  std::optional<obs::ElectionSpanTracker> tracker;
  std::optional<Nemesis> nemesis;
  CaseResult result;

  /// p's protocol actor, unwrapped from its relay.
  template <typename T>
  T& actor(ProcessId p) {
    return proto_actor<T>(sim, p, relayed);
  }
  std::vector<std::string>& violations() { return result.violations; }
};

/// What a scenario supplies to run_case: its links, its actors, the
/// processes the nemesis spares, and its own workload and checks. The rest
/// of a case — simulator, control-plane tracer, election tracker, nemesis,
/// start → run → trace dump, kill accounting and histogram roll-up — is
/// built the same way for every scenario.
struct CaseSpec {
  explicit CaseSpec(const CampaignConfig& config)
      : links(system_s_links(config)),
        protect{source_of(config)},
        kills(config.crash_stop_budget) {}

  /// Runs on topology presets (whose profile then supplies the links, the
  /// ♦-source to protect and the relay routing) and reports the
  /// per-topology observables: whether the election settled, and the obs
  /// histograms. `zero_sources` also admits the zero-sources control.
  bool topology_aware = false;
  bool zero_sources = false;
  /// The flat cluster's links.
  LinkFactory links;
  /// Client processes placed after the n replicas.
  int clients = 0;
  /// Builds process p's actor, at placement and on every restart.
  std::function<std::unique_ptr<Actor>(ProcessId)> actor;
  /// Processes the nemesis never kills on the flat cluster.
  std::vector<ProcessId> protect;
  /// The nemesis runs unless the scenario scripts its own faults;
  /// `crash_restart` adds the crash-recovery model's restarts.
  bool nemesis = true;
  bool crash_restart = false;
  int kills;
  /// Schedules the workload, once the nemesis plan is in place.
  std::function<void(Case&)> before_run;
  /// The scenario's checks, after the kill accounting.
  std::function<void(Case&)> check;
};

CaseResult run_case(const CampaignConfig& config, std::uint64_t seed,
                    const CaseSpec& spec) {
  const std::string name = scenario_name(config.scenario);
  CaseResult rejected;
  std::optional<TopologyProfile> topo;
  if (!config.topology.empty()) {
    if (!spec.topology_aware) {
      rejected.violations.push_back(
          "topology presets are not supported by the " + name + " scenario");
      return rejected;
    }
    topo = topology_profile(config, rejected.violations);
    if (!topo) return rejected;
    if (!topo->expect_stabilize && !spec.zero_sources) {
      rejected.violations.push_back("the zero-sources control needs no " +
                                    name + " stack; use the ce scenario");
      return rejected;
    }
  }
  SimConfig sc;
  sc.n = config.n + spec.clients;
  sc.seed = seed;
  const LinkFactory base = topo ? topo->factory() : spec.links;
  Case c(sc, base);
  c.protect = spec.protect;
  if (topo) {
    c.relayed = topo->use_relay;
    c.flapping_control = !topo->expect_stabilize;
    c.protect.clear();
    if (!topo->sources.empty()) c.protect.push_back(topo->sources.back());
  }
  // The control-plane trace leaves out transport events, so the
  // leadership/decide/nemesis story is not evicted from the ring by
  // per-message traffic.
  std::optional<obs::RingTracer> tracer;
  if (!config.trace_path.empty()) {
    tracer.emplace(c.sim.plane().bus(), 65536, obs::kControlEvents);
  }
  if (spec.topology_aware) c.tracker.emplace(c.sim.plane(), config.n);
  for (ProcessId p = 0; p < static_cast<ProcessId>(sc.n); ++p) {
    c.sim.set_actor_factory(
        p, [&spec, p, relayed = c.relayed]() -> std::unique_ptr<Actor> {
          if (relayed) return std::make_unique<RelayActor>(spec.actor(p));
          return spec.actor(p);
        });
  }
  if (spec.nemesis) {
    // The nemesis seed is derived from the run seed (not equal to it) so
    // link and schedule randomness are decorrelated, yet both replay from
    // the single CLI seed.
    NemesisConfig nc;
    nc.seed = seed * 0x9e3779b97f4a7c15ULL + static_cast<int>(config.scenario);
    nc.start = 1 * kSecond;
    nc.quiesce = config.quiesce;
    nc.crash_restart = spec.crash_restart;
    nc.crash_stop_budget = spec.kills;
    nc.protected_processes = c.protect;
    c.nemesis.emplace(c.sim, base, nc);
  }
  if (spec.before_run) spec.before_run(c);
  c.sim.start();
  c.sim.run_until(config.horizon);
  if (tracer) tracer->dump_jsonl_file(config.trace_path);

  if (c.nemesis) check_kill_accounting(c.sim, *c.nemesis, c.violations());
  if (c.tracker) c.result.stabilized = !c.tracker->span_open();
  spec.check(c);
  if (c.tracker) collect_histograms(c.sim, c.result);
  return std::move(c.result);
}

/// The Ω checks at the horizon: every alive process trusts the same alive
/// process and, for the communication-efficient variants, only that leader
/// sends in the trailing window (n-1 links; quantified over actual senders,
/// so crashed processes are excluded by construction). Raw-message
/// efficiency does not apply over the relay flood path (the relaxation
/// trades it for eventually timely *paths*).
template <typename Omega>
void check_election(Case& c, const CampaignConfig& config, bool efficient) {
  std::vector<std::string>& violations = c.violations();
  std::optional<ProcessId> agreed;
  bool disagreement = false;
  std::ostringstream trust;
  for (ProcessId p = 0; p < static_cast<ProcessId>(c.sim.n()); ++p) {
    if (!c.sim.alive(p)) continue;
    // Recovery replaces actor instances — fetch through the simulator,
    // never through pointers captured before the run.
    const ProcessId l = c.actor<const Omega>(p).leader();
    trust << " p" << p << "->" << int(l);
    if (!agreed) {
      agreed = l;
    } else if (*agreed != l) {
      disagreement = true;
    }
  }
  if (disagreement) {
    violations.push_back("leader disagreement after quiesce:" + trust.str());
    return;
  }
  if (!agreed) {
    violations.emplace_back("no process alive at horizon");
    return;
  }
  if (*agreed == kNoProcess || !c.sim.alive(*agreed)) {
    violations.push_back("agreed leader p" + std::to_string(int(*agreed)) +
                         " is not an alive process");
    return;
  }
  if (!efficient || c.relayed) return;
  auto senders = NetStats::from(c.sim.plane().registry())
                     ->senders_between(config.horizon - config.check_window,
                                       config.horizon);
  if (senders.size() == 1 && *senders.begin() == *agreed) return;
  std::ostringstream what;
  what << "efficiency violated: senders in trailing window {";
  for (ProcessId p : senders) what << " p" << p;
  what << " }, expected only leader p" << *agreed;
  violations.push_back(what.str());
}

CaseResult run_ce_omega(const CampaignConfig& config, std::uint64_t seed) {
  CaseSpec spec(config);
  spec.topology_aware = spec.zero_sources = true;
  spec.actor = [&config](ProcessId) {
    return std::make_unique<CeOmega>(ce_config(config));
  };
  spec.check = [&config](Case& c) {
    if (!c.flapping_control) return check_election<CeOmega>(c, config, true);
    // The paper's necessity direction: with zero ♦-sources the election
    // MUST keep flapping. A settled election here is the violation.
    c.result.stabilized = !still_flapping(*c.tracker, config.horizon);
    if (c.result.stabilized) {
      c.violations().emplace_back(
          "zero-sources control stabilized: election settled although no "
          "process has eventually timely outgoing links");
    }
  };
  return run_case(config, seed, spec);
}

CaseResult run_all2all(const CampaignConfig& config, std::uint64_t seed) {
  CaseSpec spec(config);
  // The baseline needs every link eventually timely (its premise), so no
  // process is a ♦-source to spare.
  spec.links = make_all_eventually_timely(
      500 * kMillisecond, {500 * kMicrosecond, 2 * kMillisecond},
      {0.5, {500 * kMicrosecond, 20 * kMillisecond}});
  spec.protect.clear();
  All2AllOmegaConfig oc;
  if (config.sabotage) {
    oc.initial_timeout = oc.eta / 2;
    oc.additive_step = 0;
  }
  spec.actor = [oc](ProcessId) { return std::make_unique<All2AllOmega>(oc); };
  // No efficiency check: all-to-all heartbeats forever by design.
  spec.check = [&config](Case& c) {
    check_election<All2AllOmega>(c, config, false);
  };
  return run_case(config, seed, spec);
}

CaseResult run_cr_omega(const CampaignConfig& config, std::uint64_t seed) {
  CaseSpec spec(config);
  CrOmegaConfig oc;
  DelayRange delay{500 * kMicrosecond, 2 * kMillisecond};
  if (config.sabotage) {
    // Link jitter far past the (non-adaptive) timeout: gaps between the
    // leader's heartbeats keep outlasting it, so followers keep suspecting
    // the leader and heartbeating themselves. Timeouts stay eta-scale, so
    // virtual time still advances.
    delay = {1 * kMillisecond, 100 * kMillisecond};
    oc.timeout_step = 0;
  }
  spec.links = make_all_timely(delay);
  spec.protect.clear();
  spec.crash_restart = true;  // the crash-recovery model's signature fault
  spec.actor = [oc](ProcessId) { return std::make_unique<CrOmegaStable>(oc); };
  spec.check = [&config](Case& c) {
    check_election<CrOmegaStable>(c, config, true);
  };
  return run_case(config, seed, spec);
}

CaseResult run_consensus(const CampaignConfig& config, std::uint64_t seed) {
  CaseSpec spec(config);
  spec.topology_aware = true;
  spec.actor = [&config](ProcessId) {
    return std::make_unique<CeNode>(ce_config(config), LogConsensusConfig{});
  };
  // Values proposed mid-chaos, round-robin across processes. A proposal is
  // only *owed* a decision if its submitter was alive at submission and was
  // never crash-stopped (a killed submitter's value may be lost with it).
  constexpr std::uint64_t kValues = 15;
  std::vector<bool> submitted_alive(kValues, false);
  auto submitter = [&config](std::uint64_t k) {
    return static_cast<ProcessId>(k % static_cast<std::uint64_t>(config.n));
  };
  spec.before_run = [&](Case& c) {
    for (std::uint64_t k = 0; k < kValues; ++k) {
      c.sim.schedule(1 * kSecond + k * 500 * kMillisecond, [&, k]() {
        const ProcessId p = submitter(k);
        if (!c.sim.alive(p)) return;
        submitted_alive[k] = true;
        c.actor<CeNode>(p).consensus().propose(make_value(k + 1));
      });
    }
  };
  spec.check = [&](Case& c) {
    std::vector<std::string>& violations = c.violations();
    std::vector<ProcessId> alive;
    Instance max_len = 0;
    Instance min_len = std::numeric_limits<Instance>::max();
    for (ProcessId p = 0; p < static_cast<ProcessId>(config.n); ++p) {
      if (!c.sim.alive(p)) continue;
      alive.push_back(p);
      check_acceptor_bound(c.actor<CeNode>(p).consensus(), p, 0, violations);
      const Instance len = c.actor<CeNode>(p).consensus().first_unknown();
      max_len = std::max(max_len, len);
      min_len = std::min(min_len, len);
    }
    // Agreement: across alive nodes, any two decisions for the same instance
    // are identical (checked pairwise against the first decided value).
    std::set<std::uint64_t> decided_ids;
    for (Instance i = 0; i < max_len; ++i) {
      std::optional<Bytes> expected;
      for (ProcessId p : alive) {
        auto v = c.actor<CeNode>(p).consensus().decision(i);
        if (!v) continue;
        if (!expected) {
          expected = v;
          if (!v->empty()) decided_ids.insert(value_id(*v));
        } else if (*v != *expected) {
          violations.push_back("decision disagreement at instance " +
                               std::to_string(i));
        }
      }
    }
    // Liveness + completeness: every owed value decided, on every alive node.
    const std::vector<ProcessId>& killed = c.nemesis->killed();
    for (std::uint64_t k = 0; k < kValues; ++k) {
      const ProcessId p = submitter(k);
      if (!submitted_alive[k] ||
          std::find(killed.begin(), killed.end(), p) != killed.end()) {
        continue;
      }
      if (!decided_ids.contains(k + 1)) {
        violations.push_back("value " + std::to_string(k + 1) +
                             " (submitted by alive p" + std::to_string(p) +
                             ") never decided");
      }
    }
    if (min_len < max_len) {
      violations.push_back("alive nodes have not converged: log lengths " +
                           std::to_string(min_len) + " vs " +
                           std::to_string(max_len) + " at horizon");
    }
  };
  return run_case(config, seed, spec);
}

/// The campaign's op mix: 35% get, 20% put, 20% append, 15% CAS, 10%
/// delete. A CAS expects, on a coin flip, absent/empty or `earlier()` — a
/// plausible earlier value — so some CAS succeed and some fail.
KvOp random_op(Rng& rng, std::string& expected,
               const std::function<std::string()>& earlier) {
  const std::uint64_t roll = rng.next_below(100);
  if (roll < 35) return KvOp::kGet;
  if (roll < 55) return KvOp::kPut;
  if (roll < 75) return KvOp::kAppend;
  if (roll >= 90) return KvOp::kDel;
  expected = rng.chance(0.5) ? std::string() : earlier();
  return KvOp::kCas;
}

/// Schedules the kv scenario's randomized concurrent workload, checked with
/// checker v2 (per-key partitioning makes thousands of ops tractable):
/// `kv_ops` operations over `kv_keys` keys at uniform times in
/// [1s, submit_end], submitters uniform over the cluster, each command's
/// seq its workload index + 1. Purely a function of (config, seed), drawn
/// before the simulation starts, so replays regenerate it bit-for-bit.
/// Submissions stop midway through the post-quiesce period so the tail of
/// the run drains in-flight ops; ops from killed submitters stay pending
/// (responded == kTimeNever), which the checker treats as "may take effect
/// at any later point or never" — exactly crash semantics.
void schedule_kv_workload(Case& c, const CampaignConfig& config,
                          std::uint64_t seed, RecordedHistory& history) {
  // Decorrelated from both the link randomness (raw seed) and the nemesis
  // schedule (different salt).
  Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ 0x6b766f7073ULL);
  const int n_ops = std::max(config.kv_ops, 1);
  const int n_keys = std::max(config.kv_keys, 1);
  const TimePoint submit_begin = 1 * kSecond;
  const TimePoint submit_end =
      std::max(2 * kSecond,
               config.quiesce + (config.horizon - config.quiesce) / 2);
  for (int k = 0; k < n_ops; ++k) {
    const TimePoint at =
        submit_begin + static_cast<TimePoint>(rng.next_below(
                           static_cast<std::uint64_t>(submit_end - submit_begin)));
    Command cmd;
    cmd.origin = static_cast<ProcessId>(
        rng.next_below(static_cast<std::uint64_t>(config.n)));
    cmd.seq = static_cast<std::uint64_t>(k) + 1;
    cmd.key = "k" + std::to_string(rng.next_below(
                        static_cast<std::uint64_t>(n_keys)));
    // Unique-per-op values make lost updates and double applies visible to
    // the checker (two ops never legitimately produce the same value).
    cmd.value = "v" + std::to_string(k);
    cmd.op = random_op(rng, cmd.expected, [&rng, n_ops] {
      return "v" +
             std::to_string(rng.next_below(static_cast<std::uint64_t>(n_ops)));
    });
    c.sim.schedule(at, [&c, &history, cmd = std::move(cmd)]() {
      if (!c.sim.alive(cmd.origin)) return;  // op never issued
      history.submit(c.actor<KvReplica>(cmd.origin), cmd, c.sim);
    });
  }
}

/// The first alive process holding a valid lease in any group.
ProcessId lease_holder(Case& c, int n) {
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    if (c.sim.alive(p) && c.actor<KvReplica>(p).lease_valid_groups() > 0) {
      return p;
    }
  }
  return kNoProcess;
}

/// Lease-boundary assassin: poll at a quarter of the lease window; once
/// armed, the first poll that observes a process holding a valid lease
/// kills it on the spot. Arm times derive from the seed, so the whole
/// schedule replays from the CLI. Spends the run's crash budget.
void arm_lease_assassin(Case& c, const CampaignConfig& config,
                        std::uint64_t seed, std::vector<ProcessId>& killed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ 0x6c65617365ULL);
  const TimePoint first_arm =
      2 * kSecond + static_cast<TimePoint>(rng.next_below(
                        static_cast<std::uint64_t>(config.quiesce)));
  const ProcessId spared =
      c.protect.empty() ? source_of(config) : c.protect.back();
  c.sim.schedule_every(
      2 * kSecond, std::max<Duration>(config.lease_duration / 4, 1),
      [&c, &config, &killed, rng, arm_at = first_arm, spared]() mutable {
        if (static_cast<int>(killed.size()) >= config.crash_stop_budget) {
          return false;
        }
        if (c.sim.now() < arm_at) return true;
        const ProcessId holder = lease_holder(c, config.n);
        if (holder == kNoProcess || holder == spared) return true;
        // Strict majority must survive every kill.
        if (static_cast<int>(killed.size() + 1) * 2 >= config.n) return false;
        killed.push_back(holder);
        c.sim.crash_now(holder);
        arm_at = c.sim.now() + 1 * kSecond +
                 static_cast<Duration>(rng.next_below(
                     static_cast<std::uint64_t>(config.quiesce / 2)));
        return true;
      });
}

/// Lease sabotage script: elect and write, partition the leaseholder away
/// from every replica (its self-belief — and thus its fenceless "lease" —
/// survives, because accusations travel TO the accused and are now
/// dropped), write through the successor, then read at the deposed leader.
/// With the fence disabled the deposed leader answers locally from stale
/// state; the linearizability checker must catch exactly that. `leader`
/// stays kNoProcess when no leaseholder was found.
void script_lease_sabotage(Case& c, const CampaignConfig& config,
                           RecordedHistory& history, ProcessId& leader) {
  auto submit_at = [&c, &history](ProcessId p, KvOp op, std::string value) {
    Command cmd;
    cmd.origin = p;
    cmd.seq = history.ops().size() + 1;
    cmd.op = op;
    cmd.key = "k0";
    cmd.value = std::move(value);
    history.submit(c.actor<KvReplica>(p), std::move(cmd), c.sim);
  };
  c.sim.schedule(3 * kSecond, [&c, &config, &leader, submit_at]() {
    leader = lease_holder(c, config.n);
    if (leader == kNoProcess) return;  // reported as a setup failure
    submit_at(leader, KvOp::kPut, "old");
  });
  c.sim.schedule(5 * kSecond, [&c, &config, &leader]() {
    if (leader == kNoProcess) return;
    for (ProcessId q = 0; q < static_cast<ProcessId>(config.n); ++q) {
      if (q == leader) continue;
      c.sim.network().set_link(leader, q, std::make_unique<DeadLink>());
      c.sim.network().set_link(q, leader, std::make_unique<DeadLink>());
    }
  });
  c.sim.schedule(11 * kSecond, [&config, &leader, submit_at]() {
    if (leader == kNoProcess) return;
    submit_at(static_cast<ProcessId>((leader + 1) % config.n), KvOp::kPut,
              "new");
  });
  c.sim.schedule(17 * kSecond, [&leader, submit_at]() {
    if (leader == kNoProcess) return;
    submit_at(leader, KvOp::kGet, "");
  });
}

CaseResult run_kv(const CampaignConfig& config, std::uint64_t seed) {
  CaseSpec spec(config);
  spec.topology_aware = true;
  // A preset's profile is authoritative: a lease+assassin run on a preset
  // spares the preset's protected source. On the flat cluster the assassin
  // kills the leaseholder, which under system S is (eventually) the
  // ♦-source itself, so a second source keeps the liveness premise alive
  // after the kill: leadership re-stabilizes on the spared one and pending
  // ops still drain.
  if (config.lease_reads && !config.lease_sabotage) {
    SystemSParams params;
    params.sources = {static_cast<ProcessId>(config.n - 2),
                      source_of(config)};
    params.gst = 500 * kMillisecond;
    spec.links = make_system_s(params);
  }
  // Batching keeps thousands of ops per run affordable: the Θ(n) consensus
  // cost is amortized over each batch.
  const bool lease_mode = config.lease_reads || config.lease_sabotage;
  KvReplicaConfig rc;
  rc.max_batch = 8;
  rc.batch_flush_delay = 2 * kMillisecond;
  rc.lease_reads = lease_mode;
  LogConsensusConfig lc;
  lc.lease.enabled = lease_mode;
  lc.lease.duration = config.lease_duration;
  lc.lease.unsafe_skip_fence = config.lease_sabotage;
  CeOmegaConfig oc = ce_config(config);
  if (lease_mode) oc.lease_duration = config.lease_duration;
  const KvReplica::Options opts{
      .omega = oc, .consensus = lc, .replica = rc, .shards = config.shards};
  spec.actor = [opts](ProcessId) { return std::make_unique<KvReplica>(opts); };
  // The sabotage script needs a controlled execution: no nemesis chaos, the
  // scripted partition is the only fault. Lease-assassin runs hand the
  // whole crash budget to the assassin (killing at a *meaningful* moment
  // instead of a random one).
  spec.nemesis = !config.lease_sabotage;
  if (config.lease_reads) spec.kills = 0;
  RecordedHistory history;
  std::vector<ProcessId> lease_killed;
  ProcessId sab_leader = kNoProcess;
  spec.before_run = [&](Case& c) {
    if (config.lease_reads && !config.lease_sabotage &&
        config.crash_stop_budget > 0) {
      arm_lease_assassin(c, config, seed, lease_killed);
    }
    if (config.lease_sabotage) {
      script_lease_sabotage(c, config, history, sab_leader);
    } else {
      schedule_kv_workload(c, config, seed, history);
    }
  };
  spec.check = [&](Case& c) {
    if (!config.hist_path.empty()) {
      HistoryMeta meta;
      meta.source = "lls_campaign/kv";
      meta.seed = seed;
      write_history_file(config.hist_path, history.ops(), meta);
    }
    std::vector<std::string>& violations = c.violations();
    if (config.lease_sabotage && sab_leader == kNoProcess) {
      violations.emplace_back(
          "lease sabotage script never found a leaseholder to depose");
    }
    // Liveness: an op submitted at a never-killed replica must complete once
    // the network heals (same owed-a-decision rule as the consensus
    // scenario). Assassin victims count as killed; the sabotage script's
    // permanent partition intentionally violates the healing premise, so
    // the obligation is waived there.
    std::vector<ProcessId> killed =
        c.nemesis ? c.nemesis->killed() : std::vector<ProcessId>{};
    killed.insert(killed.end(), lease_killed.begin(), lease_killed.end());
    const auto owed_pending = std::count_if(
        history.ops().begin(), history.ops().end(), [&](const HistoryOp& op) {
          return op.responded == kTimeNever &&
                 std::find(killed.begin(), killed.end(), op.cmd.origin) ==
                     killed.end();
        });
    if (owed_pending > 0 && !config.lease_sabotage) {
      violations.push_back(std::to_string(owed_pending) +
                           " ops from never-killed submitters never "
                           "completed by the horizon");
    }
    // Convergence: alive replicas hold byte-identical stores at the
    // horizon, per group.
    if (!config.lease_sabotage) {
      std::set<std::size_t> reported;
      for (const StoreFindings& found :
           audit_stores(alive_stores<KvReplica>(c.sim, config.n, c.relayed))) {
        for (std::size_t g : found.diverged) {
          if (reported.insert(g).second) {
            violations.push_back(
                "alive replicas diverged: store digests differ (shard " +
                std::to_string(g) + ")");
          }
        }
      }
    }
    check_acceptor_bounds<KvReplica>(c.sim, config.n, c.relayed, violations);
    LinOptions lo;
    lo.max_nodes = config.lin_max_nodes;
    judge_linearizability(
        LinearizabilityChecker::check_report(history.ops(), lo),
        "client history", history.ops().size(), violations,
        c.result.lin_budget_exceeded);
  };
  return run_case(config, seed, spec);
}

/// External client sessions under chaos: replicas at [0, n), ClusterClient
/// processes above them on the same fabric. Clients run a closed loop of
/// uniquely-tokened appends through the redirect/retry protocol while
/// Nemesis disrupts the cluster (clients themselves are protected — the
/// audited contract is the cluster's, not survival of the client process).
/// At the horizon: alive stores identical, no token applied twice, every
/// acked token present everywhere, and every client drained (liveness).
CaseResult run_client_session(const CampaignConfig& config,
                              std::uint64_t seed) {
  constexpr int kClients = 3;
  const int cluster_n = config.n;
  CaseSpec spec(config);
  spec.clients = kClients;
  for (int ci = 0; ci < kClients; ++ci) {
    spec.protect.push_back(static_cast<ProcessId>(cluster_n + ci));
  }
  KvReplicaConfig rc;
  rc.cluster_n = cluster_n;
  rc.max_batch = 4;
  rc.batch_flush_delay = 2 * kMillisecond;
  ClusterClientConfig cc;
  cc.cluster_n = cluster_n;
  cc.window = 2;
  // Client links are fair-lossy *forever* in system S (only the ♦-source's
  // outgoing links turn timely), so draining is probabilistic in the number
  // of retries. Keep the retry cadence tight so the drain window holds
  // dozens of attempts per request and the residual miss probability is
  // negligible.
  cc.attempt_timeout = 100 * kMillisecond;
  cc.backoff_max = 240 * kMillisecond;
  spec.actor = [&config, rc, cc](ProcessId p) -> std::unique_ptr<Actor> {
    if (p >= static_cast<ProcessId>(config.n)) {
      return std::make_unique<ClusterClient>(cc);
    }
    return std::make_unique<KvReplica>(
        KvReplica::Options{.omega = ce_config(config),
                           .consensus = LogConsensusConfig{},
                           .replica = rc});
  };

  // Server-side history, assembled from the obs client-request/reply
  // events: a second, independently recorded view of the same execution.
  std::optional<BusHistoryRecorder> recorder;
  // Closed loop: each client keeps its window full of uniquely-tokened
  // appends until submit_end, leaving the rest of the run to drain.
  const TimePoint submit_end = config.quiesce + 2 * kSecond;
  std::vector<std::string> acked_tokens;
  std::uint64_t counter = 0;
  std::function<void(int)> submit_one;
  spec.before_run = [&](Case& c) {
    recorder.emplace(c.sim.plane().bus());
    submit_one = [&, &sim = c.sim](int ci) {
      std::string token = std::to_string(cluster_n + ci) + "." +
                          std::to_string(++counter) + ";";
      sim.actor_as<ClusterClient>(static_cast<ProcessId>(cluster_n + ci))
          .submit(KvOp::kAppend, "audit" + std::to_string(ci % 2), token, "",
                  [&, token, ci](const ClientCompletion& done) {
                    if (done.has_result()) acked_tokens.push_back(token);
                    if (sim.now() < submit_end) submit_one(ci);
                  });
    };
    c.sim.schedule(1 * kSecond, [&submit_one]() {
      for (int ci = 0; ci < kClients; ++ci) {
        for (int k = 0; k < 2; ++k) submit_one(ci);
      }
    });
  };
  spec.check = [&](Case& c) {
    std::vector<std::string>& violations = c.violations();
    // Liveness: with no request deadline, every submission must be acked
    // once the cluster stabilizes; an undrained client means a lost session.
    for (int ci = 0; ci < kClients; ++ci) {
      const auto& client = c.sim.actor_as<const ClusterClient>(
          static_cast<ProcessId>(cluster_n + ci));
      if (client.inflight() + client.queued() > 0) {
        violations.push_back(
            "client p" + std::to_string(cluster_n + ci) + " still has " +
            std::to_string(client.inflight() + client.queued()) +
            " requests outstanding at horizon");
      }
    }
    // Exactly-once audit over every alive replica, with each session's
    // server state bounded by its window.
    const std::vector<ReplicaStores> replicas =
        alive_stores<KvReplica>(c.sim, cluster_n);
    const std::size_t session_bound = kSessionEntriesPerWindow * cc.window;
    for (const StoreFindings& found :
         audit_stores(replicas, &acked_tokens, session_bound)) {
      const std::string at = "replica p" + std::to_string(found.process);
      if (!found.diverged.empty()) {
        violations.push_back(at + " store digest diverges");
      }
      for (const std::string& key : found.malformed_keys) {
        violations.push_back(at + ": key " + key +
                             " holds a malformed token tail");
      }
      for (const auto& [token, count] : found.duplicates) {
        violations.push_back(at + ": token " + token + " applied " +
                             std::to_string(count) + " times (duplicate)");
      }
      // One lost token per replica is signal enough.
      if (!found.lost.empty()) {
        violations.push_back(at + ": acked token " + found.lost.front() +
                             " missing (lost write)");
      }
      for (const auto& [g, s] : found.oversized) {
        violations.push_back(
            at + " group " + std::to_string(g) + ": client session p" +
            std::to_string(s.origin) + " holds " + std::to_string(s.dedup) +
            " dedup seqs + " + std::to_string(s.results) +
            " cached results (bound " + std::to_string(session_bound) + ")");
      }
    }
    if (replicas.empty()) violations.emplace_back("no alive replica to audit");
    // The server-side recorded history must itself be linearizable: the obs
    // events bracket each op's log-order effect point, so this checks the
    // same contract from the replicas' vantage instead of the clients'.
    judge_linearizability(
        LinearizabilityChecker::check_report(recorder->history()),
        "recorded server-side history", std::nullopt, violations,
        c.result.lin_budget_exceeded);
    recorder.reset();  // unsubscribes before the simulator's bus goes
  };
  return run_case(config, seed, spec);
}

}  // namespace

CaseResult run_campaign_case(const CampaignConfig& config,
                             std::uint64_t seed) {
  switch (config.scenario) {
    case Scenario::kCeOmega:
      return run_ce_omega(config, seed);
    case Scenario::kAll2AllOmega:
      return run_all2all(config, seed);
    case Scenario::kCrOmegaStable:
      return run_cr_omega(config, seed);
    case Scenario::kConsensus:
      return run_consensus(config, seed);
    case Scenario::kKvLinearizable:
      return run_kv(config, seed);
    case Scenario::kClientSession:
      return run_client_session(config, seed);
  }
  CaseResult unknown;
  unknown.violations.emplace_back("unknown scenario");
  return unknown;
}

std::string replay_command(const CampaignConfig& config, std::uint64_t seed) {
  std::ostringstream out;
  out << "lls_campaign --scenario=" << scenario_name(config.scenario)
      << " --n=" << config.n << " --seeds=1 --first-seed=" << seed
      << " --horizon-ms=" << config.horizon / kMillisecond
      << " --quiesce-ms=" << config.quiesce / kMillisecond
      << " --kills=" << config.crash_stop_budget;
  if (config.scenario == Scenario::kKvLinearizable) {
    out << " --kv-ops=" << config.kv_ops << " --kv-keys=" << config.kv_keys;
    out << " --shards=" << config.shards;
    if (config.lease_reads) out << " --lease-reads";
    if (config.lease_sabotage) out << " --lease-sabotage";
  }
  if (!config.topology.empty()) out << " --topology=" << config.topology;
  if (!config.schedule_path.empty()) {
    out << " --schedule=" << config.schedule_path;
  }
  if (config.sabotage) out << " --sabotage";
  out << " --verbose";
  return out.str();
}

CampaignResult run_campaign(const CampaignConfig& config, std::FILE* log) {
  CampaignResult result;
  for (int i = 0; i < config.seeds; ++i) {
    std::uint64_t seed = config.first_seed + static_cast<std::uint64_t>(i);
    CaseResult case_result = run_campaign_case(config, seed);
    const std::vector<std::string>& violations = case_result.violations;
    ++result.runs;
    if (!case_result.stabilized) ++result.non_stabilized_runs;
    result.stabilization_span_ms.merge(case_result.stabilization_span_ms);
    result.decide_latency_ms.merge(case_result.decide_latency_ms);
    if (case_result.lin_budget_exceeded) {
      ++result.budget_exceeded_runs;
      if (log != nullptr) {
        std::fprintf(log,
                     "[%s] seed=%" PRIu64
                     " BUDGET EXCEEDED: linearizability check gave up "
                     "(raise --lin-max-nodes)\n  replay: %s\n",
                     scenario_name(config.scenario), seed,
                     replay_command(config, seed).c_str());
      }
    }
    const bool failed = !violations.empty() || case_result.lin_budget_exceeded;
    if (failed && !config.trace_dir.empty()) {
      // Runs are pure functions of (config, seed): re-run the offender with
      // tracing on and commit the control-plane trace — and, for the kv
      // scenario, the recorded `.hist` — as artifacts.
      CampaignConfig traced = config;
      traced.trace_path = config.trace_dir + "/trace_" +
                          scenario_name(config.scenario) + "_" +
                          std::to_string(seed) + ".jsonl";
      if (config.scenario == Scenario::kKvLinearizable) {
        traced.hist_path = config.trace_dir + "/hist_" +
                           scenario_name(config.scenario) + "_" +
                           std::to_string(seed) + ".hist";
      }
      run_campaign_case(traced, seed);
      if (log != nullptr) {
        std::fprintf(log, "[%s] seed=%" PRIu64 " trace: %s\n",
                     scenario_name(config.scenario), seed,
                     traced.trace_path.c_str());
        if (!traced.hist_path.empty()) {
          std::fprintf(log, "[%s] seed=%" PRIu64 " history: %s\n",
                       scenario_name(config.scenario), seed,
                       traced.hist_path.c_str());
        }
      }
    }
    for (const std::string& what : violations) {
      Violation v;
      v.seed = seed;
      v.what = what;
      v.replay = replay_command(config, seed);
      if (log != nullptr) {
        std::fprintf(log,
                     "[%s] VIOLATION seed=%" PRIu64 ": %s\n  replay: %s\n",
                     scenario_name(config.scenario), seed, what.c_str(),
                     v.replay.c_str());
      }
      result.violations.push_back(std::move(v));
    }
    if (log != nullptr && config.verbose && !failed) {
      std::fprintf(log, "[%s] seed=%" PRIu64 " ok\n",
                   scenario_name(config.scenario), seed);
    }
  }
  if (log != nullptr) {
    std::fprintf(log, "[%s] %d runs, %zu violations, %d budget-exceeded\n",
                 scenario_name(config.scenario), result.runs,
                 result.violations.size(), result.budget_exceeded_runs);
  }
  return result;
}

namespace {

/// The soak's churn rotation. Every profile is all-(eventually-)timely: the
/// crash-recovery Omega elects the process with the fewest recoveries —
/// which under restarts can be ANY process — so every process must
/// eventually be able to lead.
std::vector<TopologyProfile> soak_profiles(int n) {
  std::vector<TopologyProfile> out;
  TopologyProfile lan = TopologyProfile::make("lan-flat", n);
  for (ProcessId s = 0; s < static_cast<ProcessId>(n); ++s) {
    for (ProcessId d = 0; d < static_cast<ProcessId>(n); ++d) {
      if (s == d) continue;
      LinkSpec& spec = lan.link(s, d);
      spec.cls = LinkClass::kTimely;
      spec.delay = {200 * kMicrosecond, 1 * kMillisecond};
    }
  }
  out.push_back(std::move(lan));
  out.push_back(make_wan_3region_profile(n));
  WanTiers slow;
  slow.intra_dc = {400 * kMicrosecond, 2 * kMillisecond};
  slow.cross_region = {20 * kMillisecond, 60 * kMillisecond};
  slow.transcontinental = {120 * kMillisecond, 240 * kMillisecond};
  TopologyProfile wan_slow = make_wan_3region_profile(n, slow);
  wan_slow.name = "wan-3region-slow";
  out.push_back(std::move(wan_slow));
  return out;
}

}  // namespace

SoakResult run_soak(const SoakConfig& config, std::FILE* log) {
  SoakResult result;
  std::vector<std::string>& violations = result.violations;
  const int n = config.n;
  // The workload's client history (the replicas' callbacks point into it).
  RecordedHistory history;

  SimConfig sc;
  sc.n = n;
  sc.seed = config.seed;
  // Topology churn through a live factory: heals and recoveries always
  // re-instantiate from the *current* profile, and a churn swap rebuilds
  // every directed link in place.
  const std::vector<TopologyProfile> profiles = soak_profiles(n);
  std::size_t current = 0;
  LinkFactory base = [&profiles, &current](ProcessId src, ProcessId dst) {
    return profiles[current].link(src, dst).instantiate();
  };
  Simulator sim(sc, base);
  obs::ElectionSpanTracker tracker(sim.plane(), n);

  // Crash/recover telemetry off the bus: recoveries are counted, and crash
  // times waive the completion obligation of ops whose callback died with
  // the submitter's volatile state.
  std::vector<std::vector<TimePoint>> crashes(static_cast<std::size_t>(n));
  obs::Subscription sub = sim.plane().bus().subscribe(
      obs::mask_of(obs::EventType::kCrash) |
          obs::mask_of(obs::EventType::kRecover),
      [&crashes, &result, n](const obs::Event& e) {
        if (e.process == kNoProcess ||
            e.process >= static_cast<ProcessId>(n)) {
          return;
        }
        if (e.type == obs::EventType::kCrash) {
          crashes[static_cast<std::size_t>(e.process)].push_back(e.t);
        } else {
          ++result.restarts;
        }
      });

  // Durable crash-recovery replicas: every restart replays the stable log
  // and the compaction snapshot — the recovery path the soak hammers.
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    sim.set_actor_factory(p, []() {
      LogConsensusConfig lc;
      lc.durable = true;
      KvReplicaConfig rc;
      rc.max_batch = 8;
      rc.batch_flush_delay = 2 * kMillisecond;
      return std::make_unique<CrKvReplica>(CrKvReplica::Options{
          .omega = CrOmegaConfig{}, .consensus = lc, .replica = rc});
    });
  }

  // Back-to-back nemesis eras, each with crash-recovery restarts, healing
  // by 60% of the era so the cluster re-stabilizes before the next one.
  std::vector<std::unique_ptr<Nemesis>> eras;
  for (TimePoint t0 = 0; t0 + config.era <= config.duration;
       t0 += config.era) {
    NemesisConfig nc;
    nc.seed = config.seed * 0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(result.eras);
    nc.start = t0 + 1 * kSecond;
    nc.quiesce = t0 + config.era * 3 / 5;
    nc.crash_restart = true;
    nc.crash_stop_budget = 0;
    eras.push_back(std::make_unique<Nemesis>(sim, base, nc));
    ++result.eras;
  }

  // Topology churn: swap the live profile and rebuild every directed link.
  sim.schedule_every(
      config.churn_period, config.churn_period,
      [&sim, &profiles, &current, &result, log, &config]() {
        current = (current + 1) % profiles.size();
        ++result.churns;
        for (ProcessId s = 0; s < static_cast<ProcessId>(sim.n()); ++s) {
          for (ProcessId d = 0; d < static_cast<ProcessId>(sim.n()); ++d) {
            if (s == d) continue;
            sim.network().set_link(
                s, d, profiles[current].link(s, d).instantiate());
          }
        }
        if (log != nullptr && config.verbose) {
          std::fprintf(log, "[soak] t=%.0fs churn -> %s\n",
                       static_cast<double>(sim.now()) /
                           static_cast<double>(kSecond),
                       profiles[current].name.c_str());
        }
        return true;
      });

  // Periodic snapshot + log compaction, only while the whole cluster is up
  // (compaction discards history a down laggard would still need).
  // Coordinated watermark: compact every replica to the MINIMUM applied
  // prefix across the cluster, never each replica's own. Churn drops DECIDE
  // retransmissions, so replicas drift apart; per-replica compaction would
  // destroy the only copies of decisions a laggard still needs, and the
  // prepare-side compaction guard would then (rightly) refuse it leadership
  // until a catch-up that can no longer happen.
  sim.schedule_every(config.compact_period, config.compact_period,
                     [&sim, &result]() {
                       Instance floor =
                           std::numeric_limits<Instance>::max();
                       for (ProcessId p = 0;
                            p < static_cast<ProcessId>(sim.n()); ++p) {
                         if (!sim.alive(p)) return true;
                         floor = std::min(
                             floor,
                             sim.actor_as<CrKvReplica>(p).applied_upto());
                       }
                       if (floor == 0) return true;
                       for (ProcessId p = 0;
                            p < static_cast<ProcessId>(sim.n()); ++p) {
                         sim.actor_as<CrKvReplica>(p).compact_to(floor);
                       }
                       ++result.compactions;
                       return true;
                     });

  // Trickle workload: one op per period at a random replica, recorded for
  // the final linearizability check. Values are unique per op.
  const TimePoint submit_end = config.duration > config.drain
                                   ? config.duration - config.drain
                                   : config.duration / 2;
  Rng wl_rng(config.seed * 0x9e3779b97f4a7c15ULL ^ 0x736f616bULL);
  std::uint64_t op_counter = 0;
  const Duration period = std::max<Duration>(
      kSecond / static_cast<Duration>(std::max(config.ops_per_sec, 1)), 1);
  sim.schedule_every(
      1 * kSecond, period,
      [&, submit_end]() {
        if (sim.now() >= submit_end) return false;
        Command cmd;
        cmd.origin = static_cast<ProcessId>(
            wl_rng.next_below(static_cast<std::uint64_t>(sim.n())));
        cmd.key =
            "k" + std::to_string(wl_rng.next_below(
                      static_cast<std::uint64_t>(std::max(config.kv_keys, 1))));
        cmd.seq = ++op_counter;
        cmd.value = "s" + std::to_string(cmd.seq);
        cmd.op = random_op(wl_rng, cmd.expected, [&] {
          return "s" + std::to_string(wl_rng.next_below(cmd.seq) + 1);
        });
        if (!sim.alive(cmd.origin)) return true;  // op never issued
        ++result.ops_submitted;
        CrKvReplica& replica = sim.actor_as<CrKvReplica>(cmd.origin);
        history.submit(replica, std::move(cmd), sim);
        return true;
      });

  sim.start();
  sim.run_until(config.duration);

  // Every era healed its own faults; nobody may still be down.
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    if (!sim.alive(p)) {
      violations.push_back("process p" + std::to_string(p) +
                           " still down at the end of the soak");
    }
  }

  // Liveness: an op whose submitter never crashed after invocation must
  // have completed (a crash loses the volatile callback, so those are
  // waived — the op itself may or may not have been applied, which is
  // exactly the pending semantics the checker assumes).
  std::size_t owed_pending = 0;
  for (const HistoryOp& op : history.ops()) {
    if (op.responded != kTimeNever) {
      ++result.ops_completed;
      continue;
    }
    const auto& at = crashes[static_cast<std::size_t>(op.cmd.origin)];
    const bool waived = std::any_of(
        at.begin(), at.end(),
        [&op](TimePoint t) { return t >= op.invoked; });
    if (!waived) ++owed_pending;
  }
  if (owed_pending > 0) {
    violations.push_back(std::to_string(owed_pending) +
                         " ops from never-crashed submitters never "
                         "completed by the end of the soak");
  }

  // Convergence: all replicas hold byte-identical stores.
  const auto findings = audit_stores(alive_stores<CrKvReplica>(sim, n));
  if (std::any_of(findings.begin(), findings.end(),
                  [](const StoreFindings& f) { return !f.diverged.empty(); })) {
    violations.emplace_back(
        "replicas diverged: store digests differ at the end of the soak");
  }
  check_acceptor_bounds<CrKvReplica>(sim, n, false, violations);

  LinOptions lo;
  lo.max_nodes = config.lin_max_nodes;
  judge_linearizability(
      LinearizabilityChecker::check_report(history.ops(), lo), "soak history",
      history.ops().size(), violations, result.lin_budget_exceeded);

  collect_histograms(sim, result);
  if (log != nullptr) {
    std::fprintf(log,
                 "[soak] %d eras, %d churns, %d restarts, %" PRIu64
                 "/%" PRIu64 " ops completed, %" PRIu64
                 " compactions, %zu violations\n",
                 result.eras, result.churns, result.restarts,
                 result.ops_completed, result.ops_submitted,
                 result.compactions, result.violations.size());
  }
  return result;
}

}  // namespace lls
