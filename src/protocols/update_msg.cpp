#include "protocols/update_msg.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

VcReplicaProcess::VcReplicaProcess(const mcs::McsContext& ctx,
                                   mcs::ApplyResume resume,
                                   InterestFn interest, bool self_deliver)
    : McsProcess(ctx, resume), clock_(ctx.num_procs),
      interest_(std::move(interest)), self_deliver_(self_deliver) {}

StoredValue VcReplicaProcess::read(VarId var) const {
  CIM_CHECK_MSG(holds(local_index(), var),
                "process " << id() << " reads " << var
                           << " outside its interest set");
  return McsProcess::read(var);
}

void VcReplicaProcess::do_write(VarId var, Value value, WriteId wid,
                                mcs::WriteCallback cb) {
  CIM_CHECK_MSG(holds(local_index(), var),
                "process " << id() << " writes " << var
                           << " outside its interest set");
  clock_.tick(local_index());
  if (!self_deliver_) set_replica(var, value, wid);
  note_update_issued(var, value, wid, /*applied_locally=*/!self_deliver_);
  for (std::uint16_t j = 0; j < num_procs(); ++j) {
    if (j == local_index()) continue;
    auto msg = std::make_unique<TimestampedUpdate>();
    msg->clock = clock_;
    msg->writer = local_index();
    msg->write_id = wid;
    if (holds(j, var)) {
      msg->var = var;
      msg->value = value;
    } else {
      msg->has_value = false;
    }
    send_to(j, std::move(msg));
  }
  if (self_deliver_) {
    own_writes_.push_back(OwnWrite{var, value, wid});
    apply_ready();
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
