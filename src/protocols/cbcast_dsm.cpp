#include "protocols/cbcast_dsm.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

CbcastDsmProcess::CbcastDsmProcess(const mcs::McsContext& ctx)
    : McsProcess(ctx),
      member_(ctx.local_index, ctx.num_procs, *this,
              [this](std::uint16_t sender, const mp::CbPayload& p) {
                on_deliver(sender, p);
              }) {}

void CbcastDsmProcess::do_write(VarId var, Value value, WriteId wid,
                                mcs::WriteCallback cb) {
  note_update_issued(var, value, wid, /*applied_locally=*/false);
  // Self-delivery applies it.
  member_.broadcast(mp::CbPayload{var, value, wid});
  cb();
}

void CbcastDsmProcess::send_to_member(std::uint16_t member,
                                      net::MessagePtr msg) {
  send_to(member, std::move(msg));
}

void CbcastDsmProcess::on_message(net::ChannelId, net::MessagePtr msg) {
  member_.on_network(std::move(msg));
  note_update_buffered(member_.buffered());
}

void CbcastDsmProcess::on_deliver(std::uint16_t sender,
                                  const mp::CbPayload& payload) {
  const bool own = sender == local_index();
  bool completed = false;
  apply_with_upcalls(
      payload.var, payload.value, payload.wid, own,
      /*apply=*/[this, &payload]() {
        set_replica(payload.var, payload.value, payload.wid);
        note_update_applied(payload.var, payload.value, payload.wid);
      },
      /*done=*/[&completed]() { completed = true; });
  // The substrate delivers synchronously from one event; the IS-protocol
  // handlers respond synchronously, so the dance completes inline.
  CIM_CHECK_MSG(completed, "cbcast-dsm requires synchronous upcall handlers");
}

mcs::ProtocolFactory cbcast_dsm_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<CbcastDsmProcess>(ctx);
  };
}

}  // namespace cim::proto
