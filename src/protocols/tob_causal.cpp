#include "protocols/tob_causal.h"

#include <memory>

namespace cim::proto {

void TobCausalProcess::do_write(VarId var, Value value, WriteId wid,
                                mcs::WriteCallback cb) {
  // An IS-process host keeps the replica in pure sequence order so upcall
  // reads always return the value being applied (condition (c)); every
  // other writer applies its own write at once.
  publish(var, value, wid, /*pre_apply=*/!has_upcall_handler());
  cb();  // writes acknowledge immediately in this protocol
}

void TobCausalProcess::deliver_own(const TobDeliver& del) {
  if (del.pre_applied) {
    // Already applied at issue time; re-applying here could roll the
    // variable back past values this process has exposed since.
    ++own_skipped_;
    return;
  }
  apply_delivery(del);
}

mcs::ProtocolFactory tob_causal_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<TobCausalProcess>(ctx);
  };
}

}  // namespace cim::proto
