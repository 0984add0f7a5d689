#include "protocols/update_msg.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

VcReplicaProcess::VcReplicaProcess(const mcs::McsContext& ctx,
                                   mcs::ApplyResume resume)
    : McsProcess(ctx, resume), clock_(ctx.num_procs) {}

void VcReplicaProcess::do_write(VarId var, Value value, WriteId wid,
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

void VcReplicaProcess::on_message(net::ChannelId from, net::MessagePtr msg) {
  // Intra-system channels only ever carry TimestampedUpdates; checked in
  // Debug/sanitizer builds, a straight downcast in Release.
  CIM_DCHECK_MSG(dynamic_cast<TimestampedUpdate*>(msg.get()) != nullptr,
                 "unexpected message type in " << protocol_name());
  auto* update = static_cast<TimestampedUpdate*>(msg.get());
  CIM_DCHECK(update->writer == sender_of(from));
  update->received_at = simulator().now();
  pending_.push(std::move(*update));
  note_update_buffered(pending_.size());
  on_buffered();
}

}  // namespace cim::proto
