// ANBKH causal memory protocol (Ahamad, Neiger, Burns, Kohli, Hutto,
// "Causal memory: definitions, implementation and programming", 1995) —
// the canonical propagation-based causal MCS-protocol the paper cites [2].
//
// Full replication with vector clocks:
//  * write(x, v): tick own clock entry, apply locally, broadcast the update
//    with the clock, acknowledge immediately (writes are local operations);
//  * read(x): return the local replica value immediately;
//  * a remote update from writer q stamped with clock w applies when it is
//    *causally ready*: w[q] == vt[q]+1 and w[j] <= vt[j] for j != q. The
//    first ready update in arrival order (common/causal_queue.h) applies
//    next (apply_next); the McsProcess apply chain resumes in a posted event
//    after each one.
//
// Causal Updating (Property 1) holds: replicas apply causally ordered writes
// in causal order by the readiness rule, so the interconnect layer runs
// IS-protocol 1 (Fig. 1) on systems using this protocol.
#pragma once

#include "protocols/update_msg.h"

namespace cim::proto {

class AnbkhProcess final : public VcReplicaProcess {
 public:
  explicit AnbkhProcess(const mcs::McsContext& ctx)
      : VcReplicaProcess(ctx, mcs::ApplyResume::kPosted) {}

  bool satisfies_causal_updating() const override { return true; }
  const char* protocol_name() const override { return "anbkh"; }

  /// Updates received but not yet applied.
  std::size_t pending_updates() const { return pending_.size(); }

 protected:
  void on_buffered() override { apply_ready(); }
  bool apply_next() override;
};

/// Factory for mcs::SystemConfig::protocol.
mcs::ProtocolFactory anbkh_protocol();

}  // namespace cim::proto
