// Pluggable link transports: how an IS-process's ⟨x, v⟩ pairs actually move.
//
// The paper assumes "a reliable FIFO channel" between the two IS-processes of
// a link and says nothing about its realization. This interface abstracts
// that realization so the interconnect layer wires link *endpoints* instead
// of fabric channels:
//
//  * FabricLinkTransport      — the historical in-sim path: messages are
//    handed pointer-style to a fabric channel (optionally through a
//    ReliableTransport ARQ endpoint). Zero-copy, allocation-free in steady
//    state, bit-identical traces: the default.
//  * LoopbackBytesTransport   — wraps another transport and round-trips every
//    message through the wire codec (encode → decode) before forwarding, so
//    the whole federation runs over real bytes while staying in-process.
//    Enabled federation-wide by FederationConfig::link_wire (or the
//    CIM_LINK_WIRE=bytes environment knob); reports net.wire.* metrics.
//  * mesh::LinkSession        — a crash-tolerant session between OS
//    processes (mesh/link_session.h), used by tools/cim_bridge: the mesh's
//    driver of net::ArqCore over a net::TcpLinkTransport byte pipe.
//
// A transport delivers *inbound* messages by whatever registration its
// construction implies (fabric receiver wiring, a session's frame callback
// on the epoll loop); this interface only models the outbound half plus the
// lifecycle and introspection hooks the interconnect and metrics layers
// need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/fabric.h"
#include "net/message.h"
#include "net/reliable_transport.h"
#include "obs/obs.h"

namespace cim::net {

class LinkTransport {
 public:
  virtual ~LinkTransport() = default;

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

  /// The ARQ endpoint carrying this link, if any (metrics unification:
  /// Federation reports net.link.<i>.<side>.* from it).
  virtual ReliableTransport* arq() const { return nullptr; }
};

/// The in-sim path: pointer handoff to a fabric channel, optionally through
/// a ReliableTransport endpoint (which must be wired to the same channel).
class FabricLinkTransport final : public LinkTransport {
 public:
  FabricLinkTransport(Fabric& fabric, ChannelId out,
                      ReliableTransport* arq = nullptr)
      : fabric_(fabric), out_(out), arq_(arq) {}

  void send(MessagePtr msg) override {
    if (arq_ != nullptr) {
      arq_->send(std::move(msg));
    } else {
      fabric_.send(out_, std::move(msg));
    }
  }

  std::size_t backlog() const override {
    return fabric_.channel_backlog(out_);
  }

  void set_down(bool down) override {
    if (arq_ != nullptr) arq_->set_down(down);
  }

  ReliableTransport* arq() const override { return arq_; }
  ChannelId out_channel() const { return out_; }

 private:
  Fabric& fabric_;
  ChannelId out_;
  ReliableTransport* arq_;  // null: raw channel
};

/// Byte-exactness harness: every message is encoded to its wire frame and
/// decoded back before it continues down the wrapped transport, so the
/// payload the peer sees went through the full codec. Dropping or altering
/// any field on the wire would change checker verdicts / metrics and fail
/// the bytes-mode test suite.
class LoopbackBytesTransport final : public LinkTransport {
 public:
  /// `inner` is borrowed (the interconnector owns both).
  LoopbackBytesTransport(LinkTransport& inner, obs::Observability* obs);

  void send(MessagePtr msg) override;

  std::size_t backlog() const override { return inner_.backlog(); }
  void set_down(bool down) override { inner_.set_down(down); }
  bool serializing() const override { return true; }
  std::uint64_t wire_bytes_out() const override { return bytes_out_; }
  std::uint64_t wire_bytes_in() const override { return bytes_in_; }
  ReliableTransport* arq() const override { return inner_.arq(); }

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
