#include "net/link_transport.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "net/wire.h"

namespace cim::net {

namespace {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void FabricLinkTransport::on_message(ChannelId from, MessagePtr msg) {
  CIM_DCHECK(from == in_);
  deliver_(std::move(msg));
}

LoopbackBytesTransport::LoopbackBytesTransport(LinkTransport& inner,
                                               obs::Observability* obs)
    : inner_(inner) {
  if (obs != nullptr) {
    obs::MetricsRegistry& m = obs->metrics();
    m_bytes_out_ = &m.counter("net.wire.bytes_out");
    m_bytes_in_ = &m.counter("net.wire.bytes_in");
    h_encode_ns_ = &m.histogram("net.wire.encode_ns");
    h_decode_ns_ = &m.histogram("net.wire.decode_ns");
  }
}

void LoopbackBytesTransport::send(MessagePtr msg) {
  scratch_.clear();

  const std::int64_t t0 = wall_ns();
  const std::size_t frame_len = wire::encode(*msg, scratch_);
  const std::int64_t t1 = wall_ns();

  wire::DecodeResult decoded = wire::decode(scratch_.data(), scratch_.size());
  const std::int64_t t2 = wall_ns();

  CIM_CHECK_MSG(decoded.ok(), "wire loopback: decode failed ("
                                  << (decoded.error ? decoded.error : "?")
                                  << ") for " << msg->type_name());
  CIM_CHECK_MSG(decoded.consumed == frame_len,
                "wire loopback: frame length mismatch");

  bytes_out_ += frame_len;
  bytes_in_ += frame_len;
  if (m_bytes_out_ != nullptr) {
    m_bytes_out_->inc(frame_len);
    m_bytes_in_->inc(frame_len);
    // Real (wall-clock) nanoseconds, not virtual time — the codec is actual
    // CPU work; docs/OBSERVABILITY.md flags these two histograms as such.
    h_encode_ns_->observe(sim::Duration{t1 - t0});
    h_decode_ns_->observe(sim::Duration{t2 - t1});
  }
  inner_.send(std::move(decoded.msg));
}

}  // namespace cim::net
