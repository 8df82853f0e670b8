#include "net/relay.h"

namespace lls {

void RelayActor::originate(Runtime& rt, ProcessId dst, MessageType type,
                           BytesView payload) {
  ++originated_;
  Envelope e;
  e.origin = self_;
  e.seq = next_seq_++;
  e.dst = dst;
  e.inner_type = type;
  e.payload = WireBlob::ref(payload);
  seen_[self_].insert(e.seq);  // never re-deliver our own message
  flood(rt, e, /*skip_hop=*/self_);
}

void RelayActor::flood(Runtime& rt, const Envelope& envelope,
                       ProcessId skip_hop) {
  Bytes encoded = envelope.encode();
  for (ProcessId q = 0; q < static_cast<ProcessId>(rt.n()); ++q) {
    if (q == self_ || q == envelope.origin || q == skip_hop) continue;
    rt.send(q, msg_type::kRelayEnvelope, encoded);
  }
}

void RelayActor::on_message(Runtime& rt, ProcessId src, MessageType type,
                            BytesView payload) {
  if (type != msg_type::kRelayEnvelope) {
    // Direct (non-relayed) traffic still reaches the inner actor.
    inner_.on_message(*wrapper_, src, type, payload);
    return;
  }
  Envelope e = Envelope::decode(payload);
  if (!seen_[e.origin].insert(e.seq).second) return;  // duplicate
  // Forward first (helping others even if we are the destination's peer),
  // then deliver locally when addressed to us.
  if (e.dst != self_) {
    flood(rt, e, /*skip_hop=*/src);
    return;
  }
  inner_.on_message(*wrapper_, e.origin, e.inner_type, e.payload.view());
}

}  // namespace lls
