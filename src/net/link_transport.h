// Pluggable link transports: how an IS-process's ⟨x, v⟩ pairs actually move.
//
// The paper assumes "a reliable FIFO channel" between the two IS-processes of
// a link and says nothing about its realization. Every link end an
// IS-process holds is one LinkTransport: it sends with send() and hands each
// inbound payload, in order, to the deliver callback its embedder installed
// (the interconnector routes it to IsProcess::deliver_from_link). The ends:
//
//  * FabricLinkTransport      — the raw in-sim path: messages are handed
//    pointer-style to a fabric channel, and the end is the fabric receiver
//    of its in-channel. Zero-copy, allocation-free in steady state,
//    bit-identical traces: the default.
//  * net::ReliableTransport   — the simulator's ARQ over a faulty fabric
//    channel pair (net/reliable_transport.h).
//  * LoopbackBytesTransport   — wraps another end's send path and
//    round-trips every message through the wire codec (encode → decode)
//    before forwarding, so the whole federation runs over real bytes while
//    staying in-process. Enabled federation-wide by FederationConfig::
//    link_wire (or the CIM_LINK_WIRE=bytes environment knob); reports
//    net.wire.* metrics.
//  * mesh::LinkSession        — a crash-tolerant session between OS
//    processes (mesh/link_session.h), used by tools/cim_bridge: the mesh's
//    driver of net::ArqCore over a net::TcpLinkTransport byte pipe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/fabric.h"
#include "net/message.h"
#include "obs/obs.h"

namespace cim::net {

class LinkTransport {
 public:
  /// Inbound delivery: each payload from the peer end, exactly once and in
  /// send order (the implementation's contract; see each class).
  using DeliverFn = std::function<void(MessagePtr)>;

  LinkTransport() = default;
  LinkTransport(const LinkTransport&) = delete;  // callbacks hold its address
  LinkTransport& operator=(const LinkTransport&) = delete;
  virtual ~LinkTransport() = default;

  /// Install the deliver callback, before the first payload can arrive.
  virtual void set_deliver(DeliverFn deliver) {
    deliver_ = std::move(deliver);
  }

  /// Send one message to the peer endpoint (reliable FIFO semantics are the
  /// implementation's contract; see each class).
  virtual void send(MessagePtr msg) = 0;

  /// Messages queued toward the peer but not yet delivered (feeds the
  /// isc.link_backlog histogram). Best effort; 0 where unknowable.
  virtual std::size_t backlog() const { return 0; }

  /// Crash window of the owning host (see ReliableTransport::set_down).
  /// Default: no-op — transports without recovery machinery simply lose
  /// what arrives while the owner is crashed.
  virtual void set_down(bool down) { (void)down; }

  /// True iff messages cross this link as encoded bytes (wire codec on the
  /// send path). Serializing transports report byte counters.
  virtual bool serializing() const { return false; }
  virtual std::uint64_t wire_bytes_out() const { return 0; }
  virtual std::uint64_t wire_bytes_in() const { return 0; }

 protected:
  DeliverFn deliver_;
};

/// The raw in-sim path: pointer handoff to the out-channel, and the fabric
/// receiver of the in-channel (wire() both before the first send).
class FabricLinkTransport final : public LinkTransport, public Receiver {
 public:
  explicit FabricLinkTransport(Fabric& fabric) : fabric_(fabric) {}

  void wire(ChannelId out, ChannelId in) {
    out_ = out;
    in_ = in;
  }

  void send(MessagePtr msg) override { fabric_.send(out_, std::move(msg)); }

  std::size_t backlog() const override {
    return fabric_.channel_backlog(out_);
  }

  // net::Receiver (pairs from the peer end).
  void on_message(ChannelId from, MessagePtr msg) override;

 private:
  Fabric& fabric_;
  ChannelId out_{};
  ChannelId in_{};
};

/// Byte-exactness harness: every message is encoded to its wire frame and
/// decoded back before it continues down the wrapped transport, so the
/// payload the peer sees went through the full codec. Dropping or altering
/// any field on the wire would change checker verdicts / metrics and fail
/// the bytes-mode test suite. Inbound payloads arrive through the wrapped
/// end, which holds the deliver callback.
class LoopbackBytesTransport final : public LinkTransport {
 public:
  /// `inner` is borrowed (the interconnector owns both).
  LoopbackBytesTransport(LinkTransport& inner, obs::Observability* obs);

  void send(MessagePtr msg) override;

  void set_deliver(DeliverFn deliver) override {
    inner_.set_deliver(std::move(deliver));
  }
  std::size_t backlog() const override { return inner_.backlog(); }
  void set_down(bool down) override { inner_.set_down(down); }
  bool serializing() const override { return true; }
  std::uint64_t wire_bytes_out() const override { return bytes_out_; }
  std::uint64_t wire_bytes_in() const override { return bytes_in_; }

 private:
  LinkTransport& inner_;
  std::vector<std::uint8_t> scratch_;  // reused across sends
  std::uint64_t bytes_out_ = 0;
  std::uint64_t bytes_in_ = 0;

  // Cached instrument cells (null without observability).
  obs::Counter* m_bytes_out_ = nullptr;
  obs::Counter* m_bytes_in_ = nullptr;
  obs::DurationHistogram* h_encode_ns_ = nullptr;
  obs::DurationHistogram* h_decode_ns_ = nullptr;
};

}  // namespace cim::net
