// The sequencer-based total-order broadcast (TOB) core shared by aw-seq and
// tob-causal.
//
//  * publish: a write goes to the system's sequencer (local process 0),
//    which assigns it the next global sequence number and broadcasts it to
//    every process, itself included;
//  * every process buffers the deliveries and applies them in sequence
//    order (apply_next), resuming in a posted event after each one. One
//    sequencer and FIFO channels deliver them in sequence order, so the
//    buffer is a FIFO queue (a delivery out of order fails a check).
//
// With FIFO channels and a single sequencer the sequence extends the causal
// order, so both protocols satisfy the Causal Updating Property. They differ
// only in do_write (whether the writer applies its write at issue, and when
// it acknowledges) and in deliver_own (what the delivery of an own write
// does).
#pragma once

#include "common/vec_queue.h"
#include "mcs/mcs_process.h"

namespace cim::proto {

struct TobPublish final : net::Message {
  VarId var;
  Value value = kInitValue;
  std::uint16_t origin = 0;
  bool pre_applied = false;  // origin already applied it at issue
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

class TobSequencerProcess : public mcs::McsProcess {
 public:
  explicit TobSequencerProcess(const mcs::McsContext& ctx)
      : McsProcess(ctx) {}

  void on_message(net::ChannelId from, net::MessagePtr msg) override;

  bool satisfies_causal_updating() const override { return true; }

  bool is_sequencer() const { return local_index() == 0; }

 protected:
  /// Issue write `wid`: report it, apply it at once if `pre_apply`, and
  /// send it to the sequencer.
  void publish(VarId var, Value value, WriteId wid, bool pre_apply);
  /// The delivery of one of this process's own writes, in sequence order.
  virtual void deliver_own(const TobDeliver& del) = 0;
  /// Apply `del` to the replica through the upcall discipline.
  void apply_delivery(const TobDeliver& del);

  bool apply_next() override;

 private:
  void sequence(const TobPublish& pub);
  void enqueue_delivery(TobDeliver del);

  std::uint64_t next_seq_to_assign_ = 0;  // sequencer only
  std::uint64_t next_delivery_seq_ = 0;   // sequence number due to arrive
  VecQueue<TobDeliver> deliveries_;       // arrived, not yet applied
};

}  // namespace cim::proto
