// The ⟨x, v⟩ pairs exchanged between IS-processes (Fig. 1 of the paper).
// This is the entire inter-system protocol data: the IS-protocols are
// protocol-agnostic, so no vector clocks or other MCS metadata cross the
// link — only variable/value pairs, in causal order, plus trace context.
#pragma once

#include "common/ids.h"
#include "common/value.h"
#include "net/message.h"
#include "sim/time.h"

namespace cim::isc {

struct PairMsg final : net::Message {
  VarId var;
  Value value = kInitValue;
  // Trace context: instrumentation, not protocol data, yet encoded on the
  // wire (24 B of each pair, docs/WIRE.md) so a mesh peer's traces and
  // latency metrics see them: send time of this hop (isc.pair_hop_latency),
  // the time the originating IS-process first propagated the update —
  // preserved across tree forwarding, feeding isc.propagation_latency — and
  // the originating write's id, preserved likewise so the write can be
  // traced end-to-end.
  sim::Time sent_at;
  sim::Time origin_time;
  WriteId write_id;

  const char* type_name() const override { return "is.pair"; }
  std::size_t wire_size() const override { return 24 + 4 + 8; }
  net::MessagePtr clone() const override {
    return std::make_unique<PairMsg>(*this);
  }
  WriteId wid() const override { return write_id; }
};

}  // namespace cim::isc
