#include "protocols/tob_sequencer.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

void TobSequencerProcess::publish(VarId var, Value value, WriteId wid,
                                  bool pre_apply) {
  note_update_issued(var, value, wid, /*applied_locally=*/pre_apply);
  if (pre_apply) set_replica(var, value, wid);
  TobPublish pub;
  pub.var = var;
  pub.value = value;
  pub.origin = local_index();
  pub.pre_applied = pre_apply;
  pub.write_id = wid;
  if (is_sequencer()) {
    sequence(pub);
  } else {
    send_to(0, std::make_unique<TobPublish>(pub));
  }
}

void TobSequencerProcess::sequence(const TobPublish& pub) {
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

void TobSequencerProcess::on_message(net::ChannelId from,
                                     net::MessagePtr msg) {
  if (auto* pub = dynamic_cast<TobPublish*>(msg.get())) {
    CIM_CHECK_MSG(is_sequencer(), "publish sent to a non-sequencer");
    CIM_CHECK(pub->origin == sender_of(from));
    sequence(*pub);
    return;
  }
  auto* del = dynamic_cast<TobDeliver*>(msg.get());
  CIM_CHECK_MSG(del != nullptr,
                "unexpected message type in " << protocol_name());
  enqueue_delivery(std::move(*del));
}

void TobSequencerProcess::enqueue_delivery(TobDeliver del) {
  CIM_CHECK_MSG(del.seq == next_delivery_seq_,
                "TOB delivery " << del.seq << " out of sequence order "
                                << "(expected " << next_delivery_seq_ << ")");
  ++next_delivery_seq_;
  del.received_at = simulator().now();
  deliveries_.push_back(std::move(del));
  note_update_buffered(deliveries_.size());
  apply_ready();
}

bool TobSequencerProcess::apply_next() {
  if (deliveries_.empty()) return false;
  const TobDeliver del = std::move(deliveries_.front());
  deliveries_.pop_front();
  if (del.origin == local_index()) {
    deliver_own(del);
  } else {
    apply_delivery(del);
  }
  return true;
}

void TobSequencerProcess::apply_delivery(const TobDeliver& del) {
  const bool own = del.origin == local_index();
  apply_with_upcalls(del.var, del.value, del.write_id, own,
                     [this, own, var = del.var, value = del.value,
                      wid = del.write_id, received_at = del.received_at]() {
                       set_replica(var, value, wid);
                       if (own) {
                         note_update_applied(var, value, wid);
                       } else {
                         note_update_applied(var, value, wid, received_at);
                       }
                     });
}

}  // namespace cim::proto
