// The one vector-clock causal broadcast of the protocol layer: the update
// message and the write and receive paths that ANBKH (and its partial-rep
// and cbcast-dsm configurations) and lazy-batch share. The paper's §1.2
// remark that "a causal DSM system can be easily implemented on a causally
// ordered message-passing system" is this class: the broadcast is written
// once, and each protocol only decides when a causally ready update applies.
#pragma once

#include <cstdint>
#include <functional>

#include "common/causal_queue.h"
#include "common/ids.h"
#include "common/value.h"
#include "common/vec_queue.h"
#include "common/vector_clock.h"
#include "mcs/mcs_process.h"
#include "net/message.h"
#include "sim/time.h"

namespace cim::proto {

/// Does local process `index` replicate `var`? (Partial replication.)
using InterestFn = std::function<bool(std::uint16_t index, VarId var)>;

/// A write's update, stamped with the writer's clock. Without a payload it
/// is a causal marker: it advances an uninterested receiver's clock and
/// ships no data. The channel implies the writer, so `writer` is not on the
/// wire.
struct TimestampedUpdate final : net::Message {
  VarId var;
  Value value = kInitValue;
  VectorClock clock;
  std::uint16_t writer = 0;
  bool has_value = true;  // false: causal marker only
  // Instrumentation only, not wire data: the originating write's id (rides
  // the message so lifecycle trace events can be correlated per write), and
  // the local receive time at the buffering process, feeding the
  // proto.causal_wait histogram.
  WriteId write_id;
  sim::Time received_at;

  const char* type_name() const override {
    return has_value ? "vc.update" : "vc.marker";
  }
  std::size_t wire_size() const override {
    // Header + clock; a full update adds the variable id and the value.
    return (has_value ? 24 + 4 + 8 : 24) + 8 * clock.size();
  }
  WriteId wid() const override { return write_id; }
};

/// Replication with vector clocks, up to the apply order:
///  * write(x, v): tick the own clock entry, apply locally, send the update
///    stamped with the clock to every peer (a payload-less marker to a peer
///    that does not replicate x), acknowledge at once;
///  * a remote update joins the causal hold-back queue, and on_buffered()
///    decides when buffered updates apply (the subclass's apply_next).
/// With `self_deliver`, a write is not applied at once: it is delivered back
/// to the writer through the apply chain (own_writes_), as a causally
/// ordered broadcast delivers to its sender.
class VcReplicaProcess : public mcs::McsProcess {
 public:
  /// Refuses a read outside the interest set.
  StoredValue read(VarId var) const override;
  void on_message(net::ChannelId from, net::MessagePtr msg) final;

  const VectorClock& clock() const { return clock_; }
  /// Updates received but not yet applied.
  std::size_t pending_updates() const { return pending_.size(); }

 protected:
  /// A null `interest` replicates every variable everywhere.
  VcReplicaProcess(const mcs::McsContext& ctx, mcs::ApplyResume resume,
                   InterestFn interest = nullptr, bool self_deliver = false);

  void do_write(VarId var, Value value, WriteId wid,
                mcs::WriteCallback cb) final;
  /// What a newly buffered update triggers.
  virtual void on_buffered() = 0;

  bool holds(std::uint16_t index, VarId var) const {
    return interest_ == nullptr || interest_(index, var);
  }

  struct OwnWrite {
    VarId var;
    Value value;
    WriteId wid;
  };

  VectorClock clock_;
  CausalQueue<TimestampedUpdate> pending_;
  VecQueue<OwnWrite> own_writes_;  // self-delivered, not yet applied

 private:
  InterestFn interest_;
  bool self_deliver_;
};

}  // namespace cim::proto
