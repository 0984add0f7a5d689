#include "protocols/anbkh.h"

#include <memory>
#include <optional>
#include <utility>

namespace cim::proto {

AnbkhProcess::AnbkhProcess(const mcs::McsContext& ctx, InterestFn interest,
                           bool self_deliver)
    : VcReplicaProcess(ctx,
                       self_deliver ? mcs::ApplyResume::kInline
                                    : mcs::ApplyResume::kPosted,
                       interest, self_deliver),
      name_(self_deliver           ? "cbcast-dsm"
            : interest != nullptr ? "partial-rep"
                                  : "anbkh") {}

bool AnbkhProcess::apply_next() {
  if (!own_writes_.empty()) {
    const OwnWrite w = own_writes_.front();
    own_writes_.pop_front();
    apply_with_upcalls(w.var, w.value, w.wid, /*own_write=*/true, [this, w]() {
      set_replica(w.var, w.value, w.wid);
      note_update_applied(w.var, w.value, w.wid);
    });
    return true;
  }
  const std::optional<TimestampedUpdate> u = pending_.pop_ready(clock_);
  if (!u) return false;
  if (!u->has_value) {
    // Causal marker: advance knowledge, nothing to store or announce.
    clock_.set(u->writer, u->clock[u->writer]);
    return true;
  }
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
    return std::make_unique<AnbkhProcess>(ctx, nullptr, false);
  };
}

mcs::ProtocolFactory partial_rep_protocol(InterestFn interest,
                                          std::uint16_t app_process_count) {
  CIM_CHECK_MSG(interest != nullptr, "partial-rep needs an interest function");
  InterestFn holds = [interest = std::move(interest), app_process_count](
                         std::uint16_t index, VarId var) {
    return index >= app_process_count || interest(index, var);
  };
  return [holds = std::move(holds)](const mcs::McsContext& ctx) {
    return std::make_unique<AnbkhProcess>(ctx, holds, false);
  };
}

mcs::ProtocolFactory partial_rep_protocol_full() {
  return partial_rep_protocol([](std::uint16_t, VarId) { return true; },
                              /*app_process_count=*/0);
}

mcs::ProtocolFactory cbcast_dsm_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<AnbkhProcess>(ctx, nullptr, true);
  };
}

}  // namespace cim::proto
