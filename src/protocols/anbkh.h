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
//    first ready update in arrival order applies next (apply_next); the
//    McsProcess apply chain resumes in a posted event after each one.
//
// Causal Updating (Property 1) holds: replicas apply causally ordered writes
// in causal order by the readiness rule, so the interconnect layer runs
// IS-protocol 1 (Fig. 1) on systems using this protocol.
#pragma once

#include <vector>

#include "common/vector_clock.h"
#include "mcs/mcs_process.h"
#include "protocols/update_msg.h"

namespace cim::proto {

class AnbkhProcess final : public mcs::McsProcess {
 public:
  explicit AnbkhProcess(const mcs::McsContext& ctx);

  void on_message(net::ChannelId from, net::MessagePtr msg) override;

  bool satisfies_causal_updating() const override { return true; }
  const char* protocol_name() const override { return "anbkh"; }

  const VectorClock& clock() const { return clock_; }
  /// Updates received but not yet applied.
  std::size_t pending_updates() const { return pending_.size() - head_; }

 protected:
  void do_write(VarId var, Value value, WriteId wid,
                mcs::WriteCallback cb) override;
  bool apply_next() override;

 private:
  VectorClock clock_;
  // Arrival order, live from head_ on: applying the head just advances
  // head_ (O(1) however large a delivery burst makes the buffer); a
  // mid-buffer apply erases, and its shift preserves arrival order (which
  // the readiness scan depends on). The dead prefix is compacted once it is
  // half the buffer. The retained capacity keeps the steady-state buffer
  // allocation-free.
  std::vector<TimestampedUpdate> pending_;
  std::size_t head_ = 0;
};

/// Factory for mcs::SystemConfig::protocol.
mcs::ProtocolFactory anbkh_protocol();

}  // namespace cim::proto
