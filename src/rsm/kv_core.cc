#include "rsm/kv_core.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/storage.h"

namespace lls {

namespace {
/// Per-session cap on cached results kept for reply resends beyond the
/// client's acked watermark (memory bound for sessions that never ack). A
/// retry whose result was evicted gets EXPIRED.
constexpr std::size_t kResultsCap = 4096;

Bytes encode_single_command(const Command& cmd) {
  CommandBatch batch;
  batch.commands.push_back(cmd);
  return batch.encode();
}

BytesView bytes_of(const std::string& s) { return std::as_bytes(std::span(s)); }

std::string string_of(const WireBlob& blob) {
  BytesView v = blob.view();
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}
}  // namespace

KvCore::KvCore(const KvCoreOptions& options)
    : config_(options.replica),
      omega_(options.omega),
      consensus_(options.consensus, options.omega,
                 [this](Instance i, BytesView value) { on_decided(i, value); }),
      durable_(options.consensus.durable) {
  if (options.consensus.shard >= 0) {
    shard_ = static_cast<ShardId>(options.consensus.shard);
  }
}

void KvCore::on_start(Runtime& rt) {
  self_ = rt.id();
  rt_ = &rt;
  cluster_n_ = config_.cluster_n > 0 ? config_.cluster_n : rt.n();
  // Plane-wide fast-path economy counters (all cores of all processes share
  // them — the aggregate is what the benches assert on).
  reads_local_ctr_ = &rt.obs().registry().counter("kv_reads_local");
  reads_ordered_ctr_ = &rt.obs().registry().counter("kv_reads_ordered");
  // Restore the store snapshot (if any) BEFORE the consensus engine starts:
  // a durable engine re-delivers its surviving decided suffix to the sink
  // from within on_start, and snapshot_skip_ must already cover the
  // compacted prefix.
  if (durable_) restore_snapshot(rt);
  consensus_.on_start(rt);
}

void KvCore::on_message(Runtime& rt, ProcessId src, MessageType type,
                        BytesView payload) {
  if (type == msg_type::kClientRequest) {
    handle_client_request(rt, src, payload);
    return;
  }
  if (type == msg_type::kClientRequestBatch) {
    handle_client_batch(rt, src, payload);
    return;
  }
  if (type >= msg_type::kConsensusBase && type <= (msg_type::kConsensusBase | 0x00ff)) {
    consensus_.on_message(rt, src, type, payload);
  }
}

void KvCore::on_timer(Runtime& rt, TimerId timer) {
  if (timer == flush_timer_) {
    flush_timer_ = kInvalidTimer;
    flush_batch();
    return;
  }
  // Not ours: the consensus engine checks the id against its own timer.
  consensus_.on_timer(rt, timer);
}

std::uint64_t KvCore::submit(KvOp op, std::string key, std::string value,
                             std::string expected, Callback cb) {
  if (!seq_initialized_) {
    next_seq_ = initial_seq_ ? initial_seq_() : 1;
    // A fresh incarnation's first command acks every seq below its own:
    // the earlier incarnations' submitters died with them, so a stranded
    // proposal of theirs that is decided later is dropped everywhere alike.
    local_acked_ = next_seq_ - 1;
    seq_initialized_ = true;
  }
  if (config_.lease_reads && op == KvOp::kGet) {
    // Lease fast path for local submissions: a valid lease certifies no
    // other proposer can commit concurrently, so the local store is the
    // linearizable truth — answer synchronously, zero messages, zero
    // instances. The sequence number is still burned so callers correlate
    // as usual. Invalid lease -> the ordinary ordered path below.
    if (consensus_.lease_valid()) {
      ++reads_local_;
      if (reads_local_ctr_ != nullptr) reads_local_ctr_->inc();
      std::uint64_t seq = next_seq_++;
      local_done(seq);
      KvResult result = local_read(key);
      if (cb) cb(result);
      return seq;
    }
    ++reads_ordered_;
    if (reads_ordered_ctr_ != nullptr) reads_ordered_ctr_->inc();
  }
  Command cmd;
  cmd.origin = self_;
  cmd.seq = next_seq_++;
  cmd.op = op;
  cmd.key = std::move(key);
  cmd.value = std::move(value);
  cmd.expected = std::move(expected);
  cmd.read_only = config_.lease_reads && op == KvOp::kGet;
  cmd.ack_upto = local_acked_;
  if (cb) callbacks_[cmd.seq] = std::move(cb);
  enqueue_for_consensus(std::move(cmd));
  return next_seq_ - 1;
}

void KvCore::enqueue_for_consensus(Command cmd) {
  if (config_.max_batch > 1) {
    batch_.push_back(std::move(cmd));
    if (batch_.size() >= config_.max_batch) {
      flush_batch();
    } else if (flush_timer_ == kInvalidTimer && rt_ != nullptr) {
      flush_timer_ = rt_->set_timer(config_.batch_flush_delay);
    }
  } else {
    consensus_.propose(encode_single_command(cmd));
  }
}

void KvCore::enqueue_commands(std::vector<Command> cmds) {
  if (cmds.empty()) return;
  if (config_.max_batch > 1) {
    for (Command& cmd : cmds) enqueue_for_consensus(std::move(cmd));
    return;
  }
  // Batching off: still propose a coalesced burst as ONE value — these
  // commands arrived in one network message, so collapsing their instance
  // cost is free (no added latency, no held-back singles).
  CommandBatch batch;
  batch.commands = std::move(cmds);
  consensus_.propose(batch.encode());
}

void KvCore::flush_batch() {
  if (batch_.empty()) return;
  CommandBatch batch;
  batch.commands = std::move(batch_);
  batch_.clear();
  consensus_.propose(batch.encode());
  if (flush_timer_ != kInvalidTimer && rt_ != nullptr) {
    rt_->cancel_timer(flush_timer_);
    flush_timer_ = kInvalidTimer;
  }
}

std::optional<Command> KvCore::admit_one(Runtime& rt, ProcessId src,
                                         std::uint64_t seq,
                                         BytesView command_blob) {
  Command cmd = Command::decode(command_blob);
  if (cmd.origin != src || cmd.seq != seq || seq == 0) {
    return std::nullopt;  // malformed or impersonating another session: drop
  }
  {
    obs::Event e;
    e.type = obs::EventType::kClientRequest;
    e.t = rt.now();
    e.process = self_;
    e.peer = src;
    e.a = seq;
    e.payload = command_blob;  // encoded Command, for history recorders
    rt.obs().bus().publish(e);
  }

  ClientSessionSrv& sess = clients_[src];
  auto hit = sess.results.find(seq);
  if (hit != sess.results.end()) {
    // Applied already (possibly admitted by a previous leader): re-answer
    // from the cache instead of re-executing — the exactly-once reply path.
    ++cached_replies_sent_;
    send_reply(src, seq, hit->second);
    return std::nullopt;
  }
  if (seq <= sess.ack_upto) return std::nullopt;  // acked and pruned: stale

  if (cmd.op == KvOp::kGet && cmd.read_only) {
    // Client-marked read-only command: under a valid lease, answer from
    // local state — no admission slot, no consensus instance, no
    // inter-replica message. Not cached in sess.results: a retried read is
    // idempotent and simply re-serves (fast or ordered, whichever the lease
    // allows then).
    if (consensus_.lease_valid()) {
      ++reads_local_;
      if (reads_local_ctr_ != nullptr) reads_local_ctr_->inc();
      send_reply(src, seq, local_read(cmd.key));
      return std::nullopt;
    }
    // Lease miss: the read takes the ordered path — but it is counted only
    // below, once this replica actually admits it for ordering. Counting
    // here would tally redirected (and busy-bounced) reads at every replica
    // the client tries, double-counting the fast-path-economy numbers.
  }

  if (omega_->leader() != self_) {
    ++redirects_sent_;
    rt.send(src, msg_type::kClientRedirect,
            wire::encode_pooled(rt.pool(),
                                ClientRedirectMsg{omega_->leader(), shard_})
                .view());
    return std::nullopt;
  }
  if (sess.admitted.count(seq) != 0) {
    return std::nullopt;  // already queued; the reply fires on apply
  }
  if (admitted_inflight_ >= config_.admit_high_water) {
    ++busy_sent_;
    ClientBusyMsg busy;
    busy.seq = seq;
    busy.queue = static_cast<std::uint32_t>(admitted_inflight_);
    rt.send(src, msg_type::kClientBusy,
            wire::encode_pooled(rt.pool(), busy).view());
    return std::nullopt;
  }
  sess.admitted.insert(seq);
  ++admitted_inflight_;
  if (cmd.op == KvOp::kGet && cmd.read_only) {
    ++reads_ordered_;
    if (reads_ordered_ctr_ != nullptr) reads_ordered_ctr_->inc();
  }
  return cmd;
}

void KvCore::handle_client_request(Runtime& rt, ProcessId src,
                                   BytesView payload) {
  if (!is_client(src)) return;  // replicas do not speak the client protocol
  ClientRequestMsg req = ClientRequestMsg::decode(payload);
  auto cmd = admit_one(rt, src, req.seq, req.command.view());
  if (cmd.has_value()) enqueue_for_consensus(std::move(*cmd));
}

void KvCore::handle_client_batch(Runtime& rt, ProcessId src,
                                 BytesView payload) {
  if (!is_client(src)) return;
  ClientRequestBatchMsg req = ClientRequestBatchMsg::decode(payload);
  std::vector<Command> fresh;
  fresh.reserve(req.items.size());
  for (const auto& item : req.items) {
    auto cmd = admit_one(rt, src, item.seq, item.command.view());
    if (cmd.has_value()) fresh.push_back(std::move(*cmd));
  }
  enqueue_commands(std::move(fresh));
}

KvResult KvCore::local_read(const std::string& key) const {
  // Mirrors KvStore::apply's kGet semantics exactly, without counting as an
  // application (the command was never ordered).
  KvResult result;
  auto it = store_.data().find(key);
  result.found = it != store_.data().end();
  result.ok = result.found;
  if (result.found) result.value = it->second;
  return result;
}

void KvCore::send_reply(ProcessId client, std::uint64_t seq,
                        const KvResult& result) {
  ClientReplyMsg reply;
  reply.seq = seq;
  reply.ok = result.ok;
  reply.found = result.found;
  reply.value = result.value;
  ++client_replies_sent_;
  auto encoded = wire::encode_pooled(rt_->pool(), reply);
  {
    obs::Event e;
    e.type = obs::EventType::kClientReply;
    e.t = rt_->now();
    e.process = self_;
    e.peer = client;
    e.a = seq;
    e.payload = encoded.view();  // encoded ClientReplyMsg, for recorders
    rt_->obs().bus().publish(e);
  }
  rt_->send(client, msg_type::kClientReply, encoded.view());
}

void KvCore::send_expired(ProcessId client, std::uint64_t seq) {
  ++expired_sent_;
  rt_->send(client, msg_type::kClientExpired,
            wire::encode_pooled(rt_->pool(), ClientExpiredMsg{seq}).view());
}

void KvCore::local_done(std::uint64_t seq) {
  // A replayed decision of an earlier incarnation precedes this one's
  // first submit: nothing of it is owed a watermark here.
  if (!seq_initialized_ || seq <= local_acked_) return;
  local_done_.insert(seq);
  while (!local_done_.empty() && *local_done_.begin() == local_acked_ + 1) {
    local_done_.erase(local_done_.begin());
    ++local_acked_;
  }
}

bool KvCore::AppliedSeqs::contains(std::uint64_t seq) const {
  return seq <= upto || std::binary_search(above.begin(), above.end(), seq);
}

void KvCore::AppliedSeqs::insert(std::uint64_t seq) {
  // Seqs mostly arrive in order: the append is the common case.
  above.insert(std::upper_bound(above.begin(), above.end(), seq), seq);
}

void KvCore::AppliedSeqs::raise(std::uint64_t ack) {
  if (ack <= upto) return;
  upto = ack;
  above.erase(above.begin(), std::upper_bound(above.begin(), above.end(), ack));
}

std::vector<KvCore::SessionFootprint> KvCore::session_footprints() const {
  std::vector<SessionFootprint> out;
  out.reserve(clients_.size());
  for (const auto& [origin, sess] : clients_) {
    auto seen = applied_.find(origin);
    out.push_back({origin, seen == applied_.end() ? 0 : seen->second.above.size(),
                   sess.results.size()});
  }
  std::sort(out.begin(), out.end(),
            [](const SessionFootprint& a, const SessionFootprint& b) {
              return a.origin < b.origin;
            });
  return out;
}

void KvCore::on_decided(Instance i, BytesView value) {
  if (i + 1 > applied_upto_) applied_upto_ = i + 1;
  if (i < snapshot_skip_) return;  // already folded into the snapshot
  if (value.empty()) return;       // consensus no-op filler
  CommandBatch batch = CommandBatch::decode(value);
  for (const Command& cmd : batch.commands) apply_command(cmd);
}

Instance KvCore::compact_applied() { return compact_to(applied_upto_); }

Instance KvCore::compact_to(Instance upto) {
  upto = std::min(upto, applied_upto_);
  if (upto == 0) return consensus_.compacted_upto();
  // Snapshot first: once the log prefix is gone, the snapshot is the only
  // durable copy of its effects. Snapshot the full applied watermark even
  // though compact() may clamp lower — replayed decisions below the
  // snapshot are skipped, never double-applied.
  if (durable_ && rt_ != nullptr) persist_snapshot(*rt_);
  if (durable_) snapshot_skip_ = applied_upto_;
  return consensus_.compact(upto);
}

std::string KvCore::snapshot_key() const {
  return "kv_core/snapshot/" + std::to_string(consensus_.group_tag());
}

void KvCore::persist_snapshot(Runtime& rt) const {
  StableStorage* storage = rt.storage();
  if (storage == nullptr) {
    throw std::logic_error("durable KvCore snapshot requires Runtime::storage()");
  }
  KvSnapshot snap{applied_upto_, store_.applied(), {}, {}};
  snap.data.reserve(store_.data().size());
  for (const auto& [key, value] : store_.data()) {  // map order: deterministic
    snap.data.push_back(
        {WireBlob::ref(bytes_of(key)), WireBlob::ref(bytes_of(value))});
  }
  // The dedup state is part of the state machine: without it, a command
  // decided below the snapshot AND re-decided above it (leader-change
  // at-least-once) would re-apply after recovery. Its size follows the
  // origins' windows, not the history.
  snap.dedup.reserve(applied_.size());
  for (const auto& [origin, seen] : applied_) {
    snap.dedup.push_back({origin, seen.above, seen.upto});
  }
  std::sort(snap.dedup.begin(), snap.dedup.end(),
            [](const SnapshotDedup& a, const SnapshotDedup& b) {
              return a.origin < b.origin;
            });
  storage->write(snapshot_key(), snap.encode());
}

void KvCore::restore_snapshot(Runtime& rt) {
  StableStorage* storage = rt.storage();
  if (storage == nullptr) return;  // volatile runtime: nothing to restore
  auto blob = storage->read(snapshot_key());
  if (!blob.has_value()) return;  // never compacted durably
  const KvSnapshot snap = KvSnapshot::decode(*blob);
  snapshot_skip_ = snap.applied_upto;
  applied_upto_ = snapshot_skip_;
  std::map<std::string, std::string> data;
  for (const SnapshotEntry& e : snap.data) {
    data[string_of(e.key)] = string_of(e.value);
  }
  store_.restore(std::move(data), snap.store_applied);
  for (const SnapshotDedup& d : snap.dedup) {
    applied_[d.origin] = {d.upto, d.seqs};
  }
}

void KvCore::apply_command(const Command& cmd) {
  // Every replica prunes here, at the same log position: a command carrying
  // ack_upto >= s is decided after s's first placement was applied (the
  // origin saw s done first), so below the watermark means "applied".
  AppliedSeqs& seen = applied_[cmd.origin];
  const bool duplicate = seen.contains(cmd.seq);
  if (!duplicate) seen.insert(cmd.seq);
  seen.raise(cmd.ack_upto);
  ClientSessionSrv* sess = nullptr;
  if (is_client(cmd.origin)) {
    sess = &clients_[cmd.origin];
    if (cmd.ack_upto > sess->ack_upto) {
      // The client can never retry these seqs: their results are dead.
      sess->ack_upto = cmd.ack_upto;
      sess->results.erase(sess->results.begin(),
                          sess->results.upper_bound(sess->ack_upto));
    }
  }
  if (duplicate) {
    ++duplicates_;
    // A seq this replica admitted was already applied when it was
    // admitted, and no cached result answered the retry then: the result
    // is gone. Say so, or the client retries it forever.
    if (sess != nullptr && sess->admitted.erase(cmd.seq) > 0) {
      --admitted_inflight_;
      send_expired(cmd.origin, cmd.seq);
    }
    return;  // at-least-once from consensus -> exactly-once here
  }
  KvResult result = store_.apply(cmd);
  if (rt_ != nullptr) {
    obs::Event e;
    e.type = obs::EventType::kApply;
    e.t = rt_->now();
    e.process = self_;
    e.peer = cmd.origin;
    e.a = cmd.seq;
    rt_->obs().bus().publish(e);
  }
  if (sess != nullptr) {
    if (cmd.seq > sess->ack_upto) {
      sess->results[cmd.seq] = result;
      if (sess->results.size() > kResultsCap) {
        sess->results.erase(sess->results.begin());
      }
    }
    if (sess->admitted.erase(cmd.seq) > 0) {
      --admitted_inflight_;
      send_reply(cmd.origin, cmd.seq, result);
    }
    return;
  }
  if (cmd.origin == self_) {
    local_done(cmd.seq);
    auto it = callbacks_.find(cmd.seq);
    if (it != callbacks_.end()) {
      Callback cb = std::move(it->second);
      callbacks_.erase(it);
      cb(result);
    }
  }
}

}  // namespace lls
