// Attiya–Welch "local read" sequentially consistent protocol [3], built on a
// sequencer-based total-order broadcast (TOB; the core it shares with
// tob-causal is protocols/tob_sequencer.h).
//
//  * read(x): returns the local replica immediately (the fast operation);
//  * write(x, v): the update is published to the system's sequencer (local
//    process 0), which assigns it a global sequence number and broadcasts
//    it; every process applies updates in sequence order; the writer's call
//    completes when its own update is applied locally.
//
// All replicas apply the same total order, which (with FIFO channels and a
// single sequencer) extends the causal order, so executions are sequentially
// consistent — and a fortiori causal. The protocol therefore satisfies the
// Causal Updating Property and interconnects with IS-protocol 1, which is
// the paper's Section 1.1 remark: sequential systems are causal systems, and
// two of them can be interconnected into a causal (if generally no longer
// sequential) system.
//
// IS-process deviation (documented in DESIGN.md): a *blocking* write by the
// IS-process could deadlock against the upcall discipline (its write only
// completes when the pipeline applies it, but the pipeline may be blocked in
// an upcall that the sequential IS-process cannot serve while blocked in the
// write). For the MCS-process that hosts an IS-process we therefore apply
// the IS-process's writes locally at call time and acknowledge immediately;
// deliver_own re-applies them at their sequence position for convergence
// (and acknowledges every other own write there). Only the IS-process's own
// view is weakened — to causal — which is the consistency level the
// interconnection targets anyway; application processes still see the pure
// total order.
#pragma once

#include "common/vec_queue.h"
#include "protocols/tob_sequencer.h"

namespace cim::proto {

class AwSeqProcess final : public TobSequencerProcess {
 public:
  explicit AwSeqProcess(const mcs::McsContext& ctx)
      : TobSequencerProcess(ctx) {}

  const char* protocol_name() const override { return "aw-seq"; }

 protected:
  void do_write(VarId var, Value value, WriteId wid,
                mcs::WriteCallback cb) override;
  void deliver_own(const TobDeliver& del) override;

 private:
  VecQueue<mcs::WriteCallback> pending_write_acks_;  // FIFO, own writes
};

/// Factory for mcs::SystemConfig::protocol.
mcs::ProtocolFactory aw_seq_protocol();

}  // namespace cim::proto
