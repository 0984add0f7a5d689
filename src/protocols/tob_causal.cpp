#include "protocols/tob_causal.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

TobCausalProcess::TobCausalProcess(const mcs::McsContext& ctx)
    : McsProcess(ctx) {}

void TobCausalProcess::do_write(VarId var, Value value, WriteId wid,
                                mcs::WriteCallback cb) {
  // An IS-process host keeps the replica in pure sequence order so upcall
  // reads always return the value being applied (condition (c)); every
  // other writer applies its own write at once.
  const bool pre_apply = !has_upcall_handler();
  note_update_issued(var, value, wid, /*applied_locally=*/pre_apply);
  if (pre_apply) set_replica(var, value, wid);
  publish(var, value, wid, /*pre_applied=*/pre_apply);
  cb();  // writes acknowledge immediately in this protocol
}

void TobCausalProcess::publish(VarId var, Value value, WriteId wid,
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

void TobCausalProcess::sequence(const TobPublish& pub) {
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
  enqueue_delivery(del);
}

void TobCausalProcess::on_message(net::ChannelId from, net::MessagePtr msg) {
  if (auto* pub = dynamic_cast<TobPublish*>(msg.get())) {
    CIM_CHECK_MSG(is_sequencer(), "publish sent to a non-sequencer");
    CIM_CHECK(pub->origin == sender_of(from));
    sequence(*pub);
    return;
  }
  auto* del = dynamic_cast<TobDeliver*>(msg.get());
  CIM_CHECK_MSG(del != nullptr, "unexpected message type in tob-causal");
  enqueue_delivery(std::move(*del));
}

void TobCausalProcess::enqueue_delivery(TobDeliver del) {
  CIM_CHECK_MSG(del.seq >= next_apply_seq_, "duplicate TOB delivery");
  del.received_at = simulator().now();
  delivery_buffer_.emplace(del.seq, std::move(del));
  note_update_buffered(delivery_buffer_.size());
  try_apply();
}

void TobCausalProcess::try_apply() {
  if (applying_) return;
  applying_ = true;
  apply_step();
}

void TobCausalProcess::apply_step() {
  auto it = delivery_buffer_.find(next_apply_seq_);
  if (it == delivery_buffer_.end()) {
    applying_ = false;
    return;
  }
  TobDeliver del = std::move(it->second);
  delivery_buffer_.erase(it);
  ++next_apply_seq_;

  const bool own = del.origin == local_index();
  auto continue_chain = [this]() {
    simulator().post([this]() { apply_step(); });
  };

  if (own && del.pre_applied) {
    // Already applied at issue time; re-applying here could roll the
    // variable back past values this process has exposed since.
    ++own_skipped_;
    continue_chain();
    return;
  }

  apply_with_upcalls(
      del.var, del.value, del.write_id, own,
      /*apply=*/[this, own, var = del.var, value = del.value,
                 wid = del.write_id, received_at = del.received_at]() {
        set_replica(var, value, wid);
        if (own) {
          note_update_applied(var, value, wid);
        } else {
          note_update_applied(var, value, wid, received_at);
        }
      },
      /*done=*/continue_chain);
}

mcs::ProtocolFactory tob_causal_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<TobCausalProcess>(ctx);
  };
}

}  // namespace cim::proto
