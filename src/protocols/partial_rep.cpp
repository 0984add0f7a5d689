#include "protocols/partial_rep.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/check.h"

namespace cim::proto {

PartialRepProcess::PartialRepProcess(const mcs::McsContext& ctx,
                                     InterestFn interest,
                                     std::uint16_t app_process_count)
    : McsProcess(ctx), interest_(std::move(interest)),
      app_process_count_(app_process_count), clock_(ctx.num_procs) {
  CIM_CHECK_MSG(interest_ != nullptr, "partial-rep needs an interest function");
}

StoredValue PartialRepProcess::read(VarId var) const {
  CIM_CHECK_MSG(holds(var), "process " << id() << " reads " << var
                                       << " outside its interest set");
  return McsProcess::read(var);
}

void PartialRepProcess::do_write(VarId var, Value value, WriteId wid,
                                 mcs::WriteCallback cb) {
  CIM_CHECK_MSG(holds(var), "process " << id() << " writes " << var
                                       << " outside its interest set");
  clock_.tick(local_index());
  set_replica(var, value, wid);
  note_update_issued(var, value, wid, /*applied_locally=*/true);
  for (std::uint16_t j = 0; j < num_procs(); ++j) {
    if (j == local_index()) continue;
    auto msg = std::make_unique<PartialUpdate>();
    msg->clock = clock_;
    msg->writer = local_index();
    msg->write_id = wid;
    if (holds(j, var)) {
      msg->var = var;
      msg->value = value;
      msg->has_value = true;
    }  // else: causal marker only — no variable, no payload
    send_to(j, std::move(msg));
  }
  cb();
}

void PartialRepProcess::on_message(net::ChannelId from, net::MessagePtr msg) {
  CIM_DCHECK_MSG(dynamic_cast<PartialUpdate*>(msg.get()) != nullptr,
                 "unexpected message type in partial-rep");
  auto* update = static_cast<PartialUpdate*>(msg.get());
  CIM_DCHECK(update->writer == sender_of(from));
  update->received_at = simulator().now();
  pending_.push(std::move(*update));
  note_update_buffered(pending_.size());
  apply_ready();
}

bool PartialRepProcess::apply_next() {
  const std::optional<PartialUpdate> u = pending_.pop_ready(clock_);
  if (!u) return false;
  if (!u->has_value) {
    // Causal marker: advance knowledge, nothing to store or announce.
    clock_.set(u->writer, u->clock[u->writer]);
    return true;
  }
  // Scalar captures keep the apply closure within SmallFn's inline buffer.
  apply_with_upcalls(u->var, u->value, u->write_id, /*own_write=*/false,
                     [this, var = u->var, value = u->value, wid = u->write_id,
                      received_at = u->received_at, writer = u->writer,
                      writer_ticks = u->clock[u->writer]]() {
                       clock_.set(writer, writer_ticks);
                       set_replica(var, value, wid);
                       note_update_applied(var, value, wid, received_at);
                     });
  return true;
}

mcs::ProtocolFactory partial_rep_protocol(InterestFn interest,
                                          std::uint16_t app_process_count) {
  return [interest = std::move(interest),
          app_process_count](const mcs::McsContext& ctx) {
    return std::make_unique<PartialRepProcess>(ctx, interest,
                                               app_process_count);
  };
}

mcs::ProtocolFactory partial_rep_protocol_full() {
  return partial_rep_protocol([](std::uint16_t, VarId) { return true; },
                              /*app_process_count=*/0);
}

}  // namespace cim::proto
