#include "protocols/anbkh.h"

#include <memory>
#include <optional>

namespace cim::proto {

bool AnbkhProcess::apply_next() {
  const std::optional<TimestampedUpdate> u = pending_.pop_ready(clock_);
  if (!u) return false;
  // Capturing scalars (not the whole update with its clock) keeps the apply
  // closure inside SmallFn's inline buffer.
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

mcs::ProtocolFactory anbkh_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<AnbkhProcess>(ctx);
  };
}

}  // namespace cim::proto
