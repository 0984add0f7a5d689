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
// The same class runs two more protocols of the repository:
//  * partial-rep, in the spirit of Raynal & Ahamad, "Exploiting write
//    semantics in implementing partially replicated causal objects" (PDP
//    1998), the paper's citation [8]: built with an interest function, each
//    process replicates only its interest set. A peer outside a write's
//    interest set receives a causal marker (clock, no payload) that advances
//    its causal knowledge without shipping data (bench_partial_replication);
//    reads and writes outside the interest set are configuration errors and
//    throw;
//  * cbcast-dsm, the causal DSM built on a causally ordered broadcast that
//    the paper's §1.2 describes ("a causal DSM system can be easily
//    implemented on a causally ordered message-passing system [8]"): the
//    writer's own update is delivered back to it through the apply chain,
//    and the chain resumes inline, so a delivery burst applies within the
//    event that delivered it.
//
// Causal Updating (Property 1) holds in all three: replicas apply causally
// ordered writes in causal order by the readiness rule, so the interconnect
// layer runs IS-protocol 1 (Fig. 1) on systems using them.
#pragma once

#include "protocols/update_msg.h"

namespace cim::proto {

class AnbkhProcess final : public VcReplicaProcess {
 public:
  AnbkhProcess(const mcs::McsContext& ctx, InterestFn interest,
               bool self_deliver);

  bool satisfies_causal_updating() const override { return true; }
  const char* protocol_name() const override { return name_; }

 protected:
  void on_buffered() override { apply_ready(); }
  bool apply_next() override;

 private:
  const char* name_;
};

/// Factory for mcs::SystemConfig::protocol.
mcs::ProtocolFactory anbkh_protocol();

/// Partial replication. `interest` governs application processes only:
/// IS-process slots (local indices >= `app_process_count`, which must equal
/// the system's num_app_processes) replicate every variable, as the paper's
/// Section 2 requires of the IS-process's MCS-process.
mcs::ProtocolFactory partial_rep_protocol(InterestFn interest,
                                          std::uint16_t app_process_count);

/// Partial replication with full interest: ANBKH under partial-rep's name,
/// for comparison runs.
mcs::ProtocolFactory partial_rep_protocol_full();

/// The causal DSM over causal broadcast (§1.2).
mcs::ProtocolFactory cbcast_dsm_protocol();

}  // namespace cim::proto
