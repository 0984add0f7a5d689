// Vector-clock-stamped update message shared by the propagation-based
// causal protocols (ANBKH and lazy-batch), and the write and receive paths
// they share.
#pragma once

#include "common/causal_queue.h"
#include "common/ids.h"
#include "common/value.h"
#include "common/vector_clock.h"
#include "mcs/mcs_process.h"
#include "net/message.h"
#include "sim/time.h"

namespace cim::proto {

struct TimestampedUpdate final : net::Message {
  VarId var;
  Value value = kInitValue;
  VectorClock clock;
  std::uint16_t writer = 0;
  // Instrumentation only, not wire data: the originating write's id (rides
  // the message so lifecycle trace events can be correlated per write), and
  // the local receive time at the buffering process, feeding the
  // proto.causal_wait histogram.
  WriteId write_id;
  sim::Time received_at;

  const char* type_name() const override { return "vc.update"; }
  std::size_t wire_size() const override {
    return 24 + 4 + 8 + 8 * clock.size();
  }
  WriteId wid() const override { return write_id; }
};

/// Full replication with vector clocks, up to the apply order:
///  * write(x, v): tick the own clock entry, apply locally, send the update
///    stamped with the clock to every peer, acknowledge at once;
///  * a remote update joins the causal hold-back queue, and on_buffered()
///    decides when buffered updates apply (the subclass's apply_next).
class VcReplicaProcess : public mcs::McsProcess {
 public:
  void on_message(net::ChannelId from, net::MessagePtr msg) final;

  const VectorClock& clock() const { return clock_; }

 protected:
  VcReplicaProcess(const mcs::McsContext& ctx, mcs::ApplyResume resume);

  void do_write(VarId var, Value value, WriteId wid,
                mcs::WriteCallback cb) final;
  /// What a newly buffered update triggers.
  virtual void on_buffered() = 0;

  VectorClock clock_;
  CausalQueue<TimestampedUpdate> pending_;
};

}  // namespace cim::proto
