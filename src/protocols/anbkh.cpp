#include "protocols/anbkh.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

AnbkhProcess::AnbkhProcess(const mcs::McsContext& ctx)
    : McsProcess(ctx), clock_(ctx.num_procs) {}

void AnbkhProcess::do_write(VarId var, Value value, WriteId wid,
                            mcs::WriteCallback cb) {
  clock_.tick(local_index());
  set_replica(var, value, wid);
  note_update_issued(var, value, wid, /*applied_locally=*/true);
  for (std::uint16_t j = 0; j < num_procs(); ++j) {
    if (j == local_index()) continue;
    auto msg = std::make_unique<TimestampedUpdate>();
    msg->var = var;
    msg->value = value;
    msg->clock = clock_;
    msg->writer = local_index();
    msg->write_id = wid;
    send_to(j, std::move(msg));
  }
  cb();
}

void AnbkhProcess::on_message(net::ChannelId from, net::MessagePtr msg) {
  // Intra-system channels only ever carry TimestampedUpdates; checked in
  // Debug/sanitizer builds, a straight downcast in Release.
  CIM_DCHECK_MSG(dynamic_cast<TimestampedUpdate*>(msg.get()) != nullptr,
                 "unexpected message type in ANBKH");
  auto* update = static_cast<TimestampedUpdate*>(msg.get());
  CIM_DCHECK(update->writer == sender_of(from));
  update->received_at = simulator().now();
  pending_.push_back(std::move(*update));
  note_update_buffered(pending_updates());
  apply_ready();
}

bool AnbkhProcess::apply_next() {
  // Find the first causally ready pending update.
  const auto live = pending_.begin() + static_cast<std::ptrdiff_t>(head_);
  for (auto it = live; it != pending_.end(); ++it) {
    if (!it->clock.ready_at(clock_, it->writer)) continue;
    // Unpack before erasing; capturing scalars (not the whole update with
    // its clock) keeps the apply closure inside SmallFn's inline buffer.
    const VarId var = it->var;
    const Value value = it->value;
    const WriteId wid = it->write_id;
    const sim::Time received_at = it->received_at;
    const std::uint16_t writer = it->writer;
    const std::uint64_t writer_ticks = it->clock[writer];
    if (it == live) {
      ++head_;
    } else {
      pending_.erase(it);
    }
    if (2 * head_ >= pending_.size()) {
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }

    apply_with_upcalls(var, value, wid, /*own_write=*/false,
                       [this, var, value, wid, received_at, writer,
                        writer_ticks]() {
                         clock_.set(writer, writer_ticks);
                         set_replica(var, value, wid);
                         note_update_applied(var, value, wid, received_at);
                       });
    return true;
  }
  return false;
}

mcs::ProtocolFactory anbkh_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<AnbkhProcess>(ctx);
  };
}

}  // namespace cim::proto
