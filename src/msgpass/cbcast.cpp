#include "msgpass/cbcast.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/check.h"

namespace cim::mp {

CbcastMember::CbcastMember(std::uint16_t index, std::uint16_t group_size,
                           CbTransport& transport, DeliverFn deliver)
    : index_(index), group_size_(group_size), transport_(transport),
      deliver_(std::move(deliver)), clock_(group_size) {
  CIM_CHECK(index < group_size);
  CIM_CHECK_MSG(deliver_ != nullptr, "cbcast member needs a deliver callback");
}

void CbcastMember::broadcast(const CbPayload& payload) {
  clock_.tick(index_);
  for (std::uint16_t j = 0; j < group_size_; ++j) {
    if (j == index_) continue;
    auto msg = std::make_unique<CbcastMsg>();
    msg->payload = payload;
    msg->clock = clock_;
    msg->writer = index_;
    transport_.send_to_member(j, std::move(msg));
  }
  deliver_(index_, payload);  // self-delivery, immediately
}

void CbcastMember::on_network(net::MessagePtr msg) {
  CIM_DCHECK_MSG(dynamic_cast<CbcastMsg*>(msg.get()) != nullptr,
                 "unexpected message type in cbcast");
  auto* cb = static_cast<CbcastMsg*>(msg.get());
  CIM_DCHECK_MSG(cb->writer != index_, "cbcast echo");
  pending_.push(std::move(*cb));
  while (std::optional<CbcastMsg> ready = pending_.pop_ready(clock_)) {
    clock_.set(ready->writer, ready->clock[ready->writer]);
    ++delivered_;
    deliver_(ready->writer, ready->payload);
  }
}

}  // namespace cim::mp
