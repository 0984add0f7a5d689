#include "protocols/cbcast_dsm.h"

#include <memory>
#include <utility>

namespace cim::proto {

CbcastDsmProcess::CbcastDsmProcess(const mcs::McsContext& ctx)
    : McsProcess(ctx, mcs::ApplyResume::kInline),
      member_(ctx.local_index, ctx.num_procs, *this,
              [this](std::uint16_t sender, const mp::CbPayload& p) {
                delivered_.push_back(Delivery{sender == local_index(), p});
                apply_ready();
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

bool CbcastDsmProcess::apply_next() {
  if (delivered_.empty()) return false;
  const Delivery d = delivered_.front();
  delivered_.pop_front();
  const mp::CbPayload& p = d.payload;
  apply_with_upcalls(p.var, p.value, p.wid, d.own,
                     [this, var = p.var, value = p.value, wid = p.wid]() {
                       set_replica(var, value, wid);
                       note_update_applied(var, value, wid);
                     });
  return true;
}

mcs::ProtocolFactory cbcast_dsm_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<CbcastDsmProcess>(ctx);
  };
}

}  // namespace cim::proto
