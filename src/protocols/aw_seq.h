// Attiya–Welch "local read" sequentially consistent protocol [3], built on a
// sequencer-based total-order broadcast (TOB).
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
// the IS-process's writes locally at call time and acknowledge immediately
// (re-applying at the update's sequence position for convergence). Only the
// IS-process's own view is weakened — to causal — which is the consistency
// level the interconnection targets anyway; application processes still see
// the pure total order.
#pragma once

#include <map>

#include "common/vec_queue.h"
#include "mcs/mcs_process.h"

namespace cim::proto {

struct TobPublish final : net::Message {
  VarId var;
  Value value = kInitValue;
  std::uint16_t origin = 0;
  bool pre_applied = false;  // origin already applied it (IS-process write)
  // Instrumentation only, not wire data: the originating write's id.
  WriteId write_id;

  const char* type_name() const override { return "tob.publish"; }
  std::size_t wire_size() const override { return 24 + 4 + 8 + 2; }
  WriteId wid() const override { return write_id; }
};

struct TobDeliver final : net::Message {
  VarId var;
  Value value = kInitValue;
  std::uint16_t origin = 0;
  bool pre_applied = false;
  std::uint64_t seq = 0;
  // Instrumentation only, not wire data: the originating write's id, and the
  // local receive time at the buffering process, feeding the
  // proto.causal_wait histogram.
  WriteId write_id;
  sim::Time received_at;

  const char* type_name() const override { return "tob.deliver"; }
  std::size_t wire_size() const override { return 24 + 4 + 8 + 2 + 8; }
  WriteId wid() const override { return write_id; }
};

class AwSeqProcess final : public mcs::McsProcess {
 public:
  explicit AwSeqProcess(const mcs::McsContext& ctx);

  void on_message(net::ChannelId from, net::MessagePtr msg) override;

  bool satisfies_causal_updating() const override { return true; }
  const char* protocol_name() const override { return "aw-seq"; }

  bool is_sequencer() const { return local_index() == 0; }
  std::uint64_t applied_count() const { return next_apply_seq_; }

 protected:
  void do_write(VarId var, Value value, WriteId wid,
                mcs::WriteCallback cb) override;

 private:
  void publish(VarId var, Value value, WriteId wid, bool pre_applied);
  void sequence(const TobPublish& pub);
  void enqueue_delivery(TobDeliver del);
  void try_apply();
  void apply_step();

  std::uint64_t next_seq_to_assign_ = 0;       // sequencer only
  std::uint64_t next_apply_seq_ = 0;           // next sequence number to apply
  std::map<std::uint64_t, TobDeliver> delivery_buffer_;
  VecQueue<mcs::WriteCallback> pending_write_acks_;  // FIFO, own writes
  bool applying_ = false;
};

/// Factory for mcs::SystemConfig::protocol.
mcs::ProtocolFactory aw_seq_protocol();

}  // namespace cim::proto
