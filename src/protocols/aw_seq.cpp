#include "protocols/aw_seq.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

AwSeqProcess::AwSeqProcess(const mcs::McsContext& ctx) : McsProcess(ctx) {}

void AwSeqProcess::do_write(VarId var, Value value, WriteId wid,
                            mcs::WriteCallback cb) {
  // IS-process write: apply locally and acknowledge immediately (see the
  // header comment for why blocking would deadlock the upcall discipline).
  const bool pre_apply = has_upcall_handler();
  note_update_issued(var, value, wid, /*applied_locally=*/pre_apply);
  if (pre_apply) {
    set_replica(var, value, wid);
    publish(var, value, wid, /*pre_applied=*/true);
    cb();
    return;
  }
  pending_write_acks_.push_back(std::move(cb));
  publish(var, value, wid, /*pre_applied=*/false);
}

void AwSeqProcess::publish(VarId var, Value value, WriteId wid,
                           bool pre_applied) {
  TobPublish pub;
  pub.var = var;
  pub.value = value;
  pub.origin = local_index();
  pub.pre_applied = pre_applied;
  pub.write_id = wid;
  if (is_sequencer()) {
    sequence(pub);
  } else {
    send_to(0, std::make_unique<TobPublish>(pub));
  }
}

void AwSeqProcess::sequence(const TobPublish& pub) {
  TobDeliver del;
  del.var = pub.var;
  del.value = pub.value;
  del.origin = pub.origin;
  del.pre_applied = pub.pre_applied;
  del.write_id = pub.write_id;
  del.seq = next_seq_to_assign_++;
  for (std::uint16_t j = 0; j < num_procs(); ++j) {
    if (j == local_index()) continue;
    send_to(j, std::make_unique<TobDeliver>(del));
  }
  enqueue_delivery(del);  // self-delivery
}

void AwSeqProcess::on_message(net::ChannelId from, net::MessagePtr msg) {
  if (auto* pub = dynamic_cast<TobPublish*>(msg.get())) {
    CIM_CHECK_MSG(is_sequencer(), "publish sent to a non-sequencer");
    CIM_CHECK(pub->origin == sender_of(from));
    sequence(*pub);
    return;
  }
  auto* del = dynamic_cast<TobDeliver*>(msg.get());
  CIM_CHECK_MSG(del != nullptr, "unexpected message type in aw-seq");
  enqueue_delivery(std::move(*del));
}

void AwSeqProcess::enqueue_delivery(TobDeliver del) {
  CIM_CHECK_MSG(del.seq >= next_apply_seq_, "duplicate TOB delivery");
  del.received_at = simulator().now();
  delivery_buffer_.emplace(del.seq, std::move(del));
  note_update_buffered(delivery_buffer_.size());
  try_apply();
}

void AwSeqProcess::try_apply() {
  if (applying_) return;
  applying_ = true;
  apply_step();
}

void AwSeqProcess::apply_step() {
  auto it = delivery_buffer_.find(next_apply_seq_);
  if (it == delivery_buffer_.end()) {
    applying_ = false;
    return;
  }
  TobDeliver del = std::move(it->second);
  delivery_buffer_.erase(it);
  ++next_apply_seq_;

  const bool own = del.origin == local_index();
  apply_with_upcalls(
      del.var, del.value, del.write_id, /*own_write=*/own,
      /*apply=*/[this, own, var = del.var, value = del.value,
                 wid = del.write_id, received_at = del.received_at]() {
        // For a pre-applied own write this is a (convergence-restoring)
        // re-application at the update's global sequence position.
        set_replica(var, value, wid);
        if (own) {
          note_update_applied(var, value, wid);
        } else {
          note_update_applied(var, value, wid, received_at);
        }
      },
      /*done=*/[this, own, pre_applied = del.pre_applied]() {
        if (own && !pre_applied) {
          CIM_CHECK_MSG(!pending_write_acks_.empty(),
                        "own delivery without a pending write");
          mcs::WriteCallback ack = std::move(pending_write_acks_.front());
          pending_write_acks_.pop_front();
          ack();
        }
        simulator().post([this]() { apply_step(); });
      });
}

mcs::ProtocolFactory aw_seq_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<AwSeqProcess>(ctx);
  };
}

}  // namespace cim::proto
