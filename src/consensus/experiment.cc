#include "consensus/experiment.h"

#include <algorithm>

namespace lls {

namespace {

/// An experiment value: the u64 id the bookkeeping tracks it by.
struct ValueId {
  std::uint64_t id = 0;

  LLS_WIRE_FIELDS(ValueId, id)
};

}  // namespace

Bytes make_value(std::uint64_t id) { return ValueId{id}.encode(); }

std::uint64_t value_id(BytesView value) { return ValueId::decode(value).id; }

ConsensusResult run_consensus_experiment(const ConsensusExperiment& exp) {
  SimConfig config;
  config.n = exp.n;
  config.seed = exp.seed;
  Simulator sim(config, exp.links);

  std::vector<ConsensusActor*> engines(static_cast<std::size_t>(exp.n));
  std::vector<CeNode*> nodes(static_cast<std::size_t>(exp.n), nullptr);
  std::vector<RotatingConsensus*> rotators(static_cast<std::size_t>(exp.n),
                                           nullptr);
  for (ProcessId p = 0; p < static_cast<ProcessId>(exp.n); ++p) {
    if (exp.algo == ConsensusAlgo::kCeLog) {
      auto& node = sim.emplace_actor<CeNode>(p, exp.ce, exp.log_config);
      nodes[p] = &node;
      engines[p] = &node.consensus();
    } else {
      auto& rot = sim.emplace_actor<RotatingConsensus>(p, exp.rotating);
      rotators[p] = &rot;
      engines[p] = &rot;
    }
  }
  for (auto [p, t] : exp.crashes) sim.crash_at(p, t);

  // Decision bookkeeping: per value id, propose time and per-process decide
  // times (only non-noop values carry ids).
  std::map<std::uint64_t, TimePoint> proposed_at;
  std::map<std::uint64_t, std::map<ProcessId, TimePoint>> decided_at;
  TimePoint last_decide_event = 0;

  // One plane-wide subscription replaces the old per-engine decision
  // listeners: kDecide events carry the emitting process and the value.
  obs::Subscription decide_sub = sim.plane().bus().subscribe(
      obs::mask_of(obs::EventType::kDecide), [&](const obs::Event& e) {
        if (e.payload.empty()) return;  // no-op filler
        decided_at[value_id(e.payload)].emplace(e.process, sim.now());
        last_decide_event = std::max(last_decide_event, sim.now());
      });

  // Workload. A value scheduled at an already-crashed submitter is not a
  // proposal (nobody ever submitted it), so it is not recorded.
  ConsensusResult result;
  for (int k = 0; k < exp.num_values; ++k) {
    TimePoint at = exp.first_propose + k * exp.propose_interval;
    auto id = static_cast<std::uint64_t>(k + 1);
    sim.schedule(at, [&, k, id, at]() {
      Bytes value = make_value(id);
      if (exp.algo == ConsensusAlgo::kCeLog) {
        ProcessId submitter =
            exp.proposer != kNoProcess
                ? exp.proposer
                : static_cast<ProcessId>(k % exp.n);
        if (sim.alive(submitter)) {
          proposed_at[id] = at;
          engines[submitter]->propose(value);
        }
      } else {
        proposed_at[id] = at;
        // Chandra–Toueg model: every (alive) process holds an initial value
        // for the instance; the round decides one of them.
        for (ProcessId p = 0; p < static_cast<ProcessId>(exp.n); ++p) {
          if (sim.alive(p)) {
            rotators[p]->propose_at(static_cast<Instance>(k), value);
          }
        }
      }
    });
  }

  sim.start();
  sim.run_until(exp.horizon);
  result.values_proposed = static_cast<int>(proposed_at.size());

  for (ProcessId p = 0; p < static_cast<ProcessId>(exp.n); ++p) {
    if (sim.alive(p)) result.correct.insert(p);
  }

  // Agreement: compare decided logs across all processes, instance by
  // instance (crashed processes included — their prefixes must agree too).
  result.agreement_ok = true;
  result.validity_ok = true;
  Instance max_len = 0;
  for (auto* e : engines) max_len = std::max(max_len, e->first_unknown());
  // first_unknown is a prefix bound; compare over a generous range.
  for (Instance i = 0; i < max_len + 64; ++i) {
    const Bytes* seen = nullptr;
    Bytes seen_value;
    for (auto* e : engines) {
      auto v = e->decision(i);
      if (!v.has_value()) continue;
      if (seen == nullptr) {
        seen_value = *v;
        seen = &seen_value;
      } else if (*v != seen_value) {
        result.agreement_ok = false;
      }
      if (!v->empty()) {
        std::uint64_t id = value_id(*v);
        if (id == 0 || id > static_cast<std::uint64_t>(exp.num_values)) {
          result.validity_ok = false;
        }
      }
    }
  }

  // Liveness + latency.
  for (const auto& [id, at] : proposed_at) {
    auto it = decided_at.find(id);
    if (it == decided_at.end()) continue;
    bool everywhere = true;
    TimePoint first = kTimeNever;
    TimePoint last = 0;
    for (ProcessId p : result.correct) {
      auto pit = it->second.find(p);
      if (pit == it->second.end()) {
        everywhere = false;
        continue;
      }
      first = std::min(first, pit->second);
      last = std::max(last, pit->second);
    }
    if (first != kTimeNever) {
      result.latency_first.record(static_cast<double>(first - at));
    }
    if (everywhere) {
      ++result.values_decided_everywhere;
      result.latency_all.record(static_cast<double>(last - at));
    }
  }
  result.all_decided =
      result.values_decided_everywhere == result.values_proposed;

  // The unified registry owns the network stats; read them back through it.
  const NetStats& stats = *NetStats::from(sim.plane().registry());
  result.total_msgs = stats.sent_total();
  result.total_events = sim.events_executed();
  if (result.values_decided_everywhere > 0) {
    // Message cost attributable to consensus: consensus-class traffic from
    // the first proposal until the last decision lands everywhere.
    auto denom = static_cast<double>(result.values_decided_everywhere);
    std::uint64_t consensus_msgs = stats.class_msgs_between(
        exp.first_propose, last_decide_event + 1,
        NetStats::type_class(msg_type::kConsensusBase));
    result.msgs_per_decision = static_cast<double>(consensus_msgs) / denom;
    result.msgs_per_decision_total =
        static_cast<double>(
            stats.msgs_between(exp.first_propose, last_decide_event + 1)) /
        denom;
  }
  result.trailing_senders =
      stats.senders_between(exp.horizon - exp.trailing_window, exp.horizon);
  result.trailing_msgs =
      stats.msgs_between(exp.horizon - exp.trailing_window, exp.horizon);
  return result;
}

}  // namespace lls
