// Reliable FIFO transport synthesized over a faulty channel (ARQ).
//
// The paper's IS-protocols are correct only if the single inter-IS channel is
// a *reliable FIFO* channel (Section 1.1, Theorem 1). A ReliableTransport
// endpoint restores that assumption on top of a lossy, reordering, or
// partitioned link: per-message sequence numbers, cumulative ACKs
// (piggybacked on data frames, or sent standalone after a short delay),
// retransmission timers with exponential backoff and jitter, duplicate and
// reorder suppression on receive, and a bounded send window with
// backpressure — payloads past the window queue at the sender, mirroring the
// paper's dial-up queuing.
//
// Topology: one endpoint per side of a link, each a net::LinkTransport the
// IS-process holds like any other link end. Endpoint A sends data frames on
// the A→B channel and is the fabric receiver of the B→A channel, on which
// data + ACKs arrive (and vice versa), so every frame of the reverse
// direction carries a cumulative ACK for free. In-order payloads go to the
// deliver callback (LinkTransport::set_deliver), synchronously inside the
// fabric's delivery event.
//
// Crash windows: set_down(true) models the owning host being crashed — every
// arriving frame is dropped (the peer's retransmissions recover them later)
// and all timers stop. Sequencing state (the ARQ core, queued payloads)
// persists across the window, modelling the stable storage a real recovery
// log provides; see docs/FAULTS.md for the recovery invariants.
#pragma once

#include <cstdint>
#include <map>

#include "common/rng.h"
#include "common/vec_queue.h"
#include "net/arq_core.h"
#include "net/fabric.h"
#include "net/link_transport.h"
#include "obs/obs.h"

namespace cim::net {

/// ARQ timing. The RTO starts at kRtoInitial, grows ×kBackoff per
/// consecutive timeout without ACK progress (capped at kRtoMax), and each
/// armed retransmit timer stretches by a uniform factor in [1, 1 + kJitter]
/// so both endpoints never retransmit in lockstep. A received data frame
/// with no outbound data to piggyback on is acknowledged standalone after
/// kAckDelay. At most kWindow unacknowledged data frames are in flight;
/// further sends queue.
inline constexpr std::size_t kWindow = 32;
inline constexpr sim::Duration kRtoInitial = sim::milliseconds(20);
inline constexpr sim::Duration kRtoMax = sim::milliseconds(400);
inline constexpr double kBackoff = 2.0;
inline constexpr double kJitter = 0.25;
inline constexpr sim::Duration kAckDelay = sim::milliseconds(2);

class ReliableTransport final : public LinkTransport, public Receiver {
 public:
  /// `seed` drives the retransmit-timer jitter.
  ReliableTransport(Fabric& fabric, std::uint64_t seed,
                    obs::Observability* obs = nullptr);

  /// Wire the endpoint: data+ACK frames go out on `out`; this endpoint must
  /// be registered as the Fabric receiver of `in`.
  void wire(ChannelId out, ChannelId in);

  /// Send a payload reliably: delivered to the peer's deliver callback
  /// exactly once, in send order. Payloads must support Message::clone()
  /// (needed for retransmission).
  void send(MessagePtr payload) override;

  /// Frames on the out-channel not yet delivered (the fabric's count).
  std::size_t backlog() const override {
    return fabric_.channel_backlog(out_);
  }

  /// Crash window of the owning host: while down, arriving frames are lost
  /// (the ARQ recovers them) and no timer fires. Sequencing state persists.
  void set_down(bool down) override;
  bool down() const { return down_; }

  // ---- introspection -------------------------------------------------------
  std::size_t window_in_use() const { return arq_.unacked(); }
  std::size_t queued() const { return queue_.size(); }
  /// Payloads handed to the deliver callback (exactly-once count).
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t dups_suppressed() const { return dups_suppressed_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  /// Frames dropped because they arrived inside a crash window.
  std::uint64_t dropped_while_down() const { return dropped_while_down_; }
  /// All sent payloads acknowledged and nothing queued.
  bool drained() const { return arq_.unacked() == 0 && queue_.empty(); }

  // net::Receiver (frames from the peer endpoint).
  void on_message(ChannelId from, MessagePtr msg) override;

 private:
  struct Unacked {
    MessagePtr msg;  // original; clones go on the wire
    std::uint32_t attempts = 0;
  };
  using Arq = ArqCore<Unacked>;

  void admit_from_queue();
  /// Put every journal entry past the wire cursor on the wire.
  void transmit_pending();
  void transmit(Arq::Entry& entry);
  void handle_ack(std::uint64_t ack);
  void deliver(MessagePtr payload);
  void arm_retx_timer();
  void disarm_retx_timer() { ++retx_gen_; }
  void on_retx_timeout();
  void schedule_ack();
  void send_standalone_ack();

  Fabric& fabric_;
  sim::Simulator& sim_;
  Rng rng_;
  ChannelId out_{};
  ChannelId in_{};
  bool wired_ = false;
  bool down_ = false;

  Arq arq_;                            // cursors + in-flight window
  VecQueue<MessagePtr> queue_;         // backpressured payloads, no seq yet
  sim::Duration rto_;
  std::uint64_t retx_gen_ = 0;         // cancels stale timer events
  bool retx_armed_ = false;

  std::map<std::uint64_t, MessagePtr> reorder_; // frames ahead of a gap
  bool ack_pending_ = false;
  std::uint64_t ack_gen_ = 0;

  std::uint64_t delivered_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t dups_suppressed_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t dropped_while_down_ = 0;

  // Cached instrument cells (null without observability).
  obs::TraceSink* trace_ = nullptr;
  obs::Counter* m_retx_sent_ = nullptr;
  obs::Counter* m_retx_timeouts_ = nullptr;
  obs::Counter* m_acks_ = nullptr;
  obs::Counter* m_dups_ = nullptr;
  obs::Counter* m_down_drops_ = nullptr;
  obs::ValueHistogram* h_window_ = nullptr;
};

}  // namespace cim::net
