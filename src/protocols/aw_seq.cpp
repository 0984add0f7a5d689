#include "protocols/aw_seq.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

void AwSeqProcess::do_write(VarId var, Value value, WriteId wid,
                            mcs::WriteCallback cb) {
  // IS-process write: apply locally and acknowledge immediately (see the
  // header comment for why blocking would deadlock the upcall discipline).
  // Any other write is acknowledged when its own delivery applies.
  const bool pre_apply = has_upcall_handler();
  if (!pre_apply) pending_write_acks_.push_back(std::move(cb));
  publish(var, value, wid, pre_apply);
  if (pre_apply) cb();
}

void AwSeqProcess::deliver_own(const TobDeliver& del) {
  // For a pre-applied write this is a (convergence-restoring)
  // re-application at the update's global sequence position.
  apply_delivery(del);
  if (del.pre_applied) return;
  CIM_CHECK_MSG(!pending_write_acks_.empty(),
                "own delivery without a pending write");
  mcs::WriteCallback ack = std::move(pending_write_acks_.front());
  pending_write_acks_.pop_front();
  ack();
}

mcs::ProtocolFactory aw_seq_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<AwSeqProcess>(ctx);
  };
}

}  // namespace cim::proto
