#include "net/reliable_transport.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "net/wire.h"

namespace cim::net {

ReliableTransport::ReliableTransport(Fabric& fabric, std::uint64_t seed,
                                     obs::Observability* obs)
    : fabric_(fabric), sim_(fabric.simulator()), rng_(seed), rto_(kRtoInitial) {
  if (obs != nullptr) {
    trace_ = &obs->trace();
    obs::MetricsRegistry& m = obs->metrics();
    m_retx_sent_ = &m.counter("net.retx.sent");
    m_retx_timeouts_ = &m.counter("net.retx.timeouts");
    m_acks_ = &m.counter("net.acks");
    m_dups_ = &m.counter("net.dups_suppressed");
    m_down_drops_ = &m.counter("net.down_drops");
    h_window_ = &m.value_histogram("transport.window_occupancy");
  }
}

void ReliableTransport::wire(ChannelId out, ChannelId in) {
  CIM_CHECK_MSG(!wired_, "transport endpoint wired twice");
  wired_ = true;
  out_ = out;
  in_ = in;
}

void ReliableTransport::send(MessagePtr payload) {
  CIM_CHECK_MSG(wired_, "transport endpoint not wired");
  CIM_CHECK_MSG(payload != nullptr, "cannot send a null payload");
  queue_.push_back(std::move(payload));
  admit_from_queue();
}

void ReliableTransport::admit_from_queue() {
  while (!down_ && !queue_.empty() && arq_.unacked() < kWindow) {
    arq_.stamp().payload.msg = std::move(queue_.front());
    queue_.pop_front();
    if (h_window_ != nullptr) {
      h_window_->observe(static_cast<std::int64_t>(arq_.unacked()));
    }
    transmit_pending();
  }
}

void ReliableTransport::transmit_pending() {
  while (Arq::Entry* entry = arq_.next_to_wire()) transmit(*entry);
}

void ReliableTransport::transmit(Arq::Entry& entry) {
  Unacked& u = entry.payload;
  ++u.attempts;
  auto frame = std::make_unique<TransportFrame>();
  frame->seq = entry.seq;
  frame->ack = arq_.recv_next();
  frame->payload = u.msg->clone();
  CIM_CHECK_MSG(frame->payload != nullptr,
                "transport payloads must implement Message::clone()");
  // The frame carries a cumulative ACK, so any delayed standalone ACK
  // becomes redundant.
  ack_pending_ = false;
  ++ack_gen_;
  if (u.attempts > 1) {
    ++retransmits_;
    if (m_retx_sent_ != nullptr) m_retx_sent_->inc();
    CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kNet, "retx",
              {{"ch", out_.value},
               {"seq", entry.seq},
               {"attempt", u.attempts}});
  }
  fabric_.send(out_, std::move(frame));
  if (!retx_armed_) arm_retx_timer();
}

void ReliableTransport::arm_retx_timer() {
  retx_armed_ = true;
  const std::uint64_t gen = ++retx_gen_;
  const auto stretched = static_cast<std::int64_t>(
      static_cast<double>(rto_.ns) * (1.0 + kJitter * rng_.uniform01()));
  sim_.after(sim::Duration{stretched}, [this, gen] {
    if (gen != retx_gen_) return;  // superseded or disarmed
    retx_armed_ = false;
    on_retx_timeout();
  });
}

void ReliableTransport::on_retx_timeout() {
  if (down_ || arq_.unacked() == 0) return;
  ++timeouts_;
  if (m_retx_timeouts_ != nullptr) m_retx_timeouts_->inc();
  CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kNet, "retx_timeout",
            {{"ch", out_.value},
             {"oldest", arq_.acked()},
             {"window", static_cast<std::uint64_t>(arq_.unacked())},
             {"rto_ns", rto_}});
  // Go-back-N on timeout: back off the timer, then resend the whole window
  // (the receiver holds back out-of-order frames, so duplicates are
  // suppressed cheaply). The first transmit re-arms the timer at the
  // backed-off RTO.
  rto_ = sim::Duration{std::min(
      static_cast<std::int64_t>(static_cast<double>(rto_.ns) * kBackoff),
      kRtoMax.ns)};
  arq_.rewind();
  transmit_pending();
}

void ReliableTransport::handle_ack(std::uint64_t ack) {
  if (!arq_.ack(ack)) return;
  rto_ = kRtoInitial;  // fresh ACK progress resets the backoff
  if (arq_.unacked() == 0) {
    disarm_retx_timer();
    retx_armed_ = false;
  } else {
    arm_retx_timer();
  }
  admit_from_queue();
}

void ReliableTransport::on_message(ChannelId from, MessagePtr msg) {
  CIM_CHECK(from == in_);
  CIM_DCHECK_MSG(dynamic_cast<TransportFrame*>(msg.get()) != nullptr,
                 "transport received a non-transport frame");
  auto* frame = static_cast<TransportFrame*>(msg.get());
  if (down_) {
    // The owning host is crashed: the frame is lost at the NIC. The peer's
    // retransmission timer recovers it after restart.
    ++dropped_while_down_;
    if (m_down_drops_ != nullptr) m_down_drops_->inc();
    CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kNet, "down_drop",
              {{"ch", in_.value}, {"type", frame->type_name()}});
    return;
  }

  handle_ack(frame->ack);
  if (frame->payload == nullptr) return;  // standalone ACK

  const std::uint64_t seq = frame->seq;
  switch (arq_.receive(seq)) {
    case ArqRx::kDuplicate:
      // Already delivered (a retransmission raced the ACK). Re-ACK so the
      // sender advances.
      ++dups_suppressed_;
      if (m_dups_ != nullptr) m_dups_->inc();
      CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kNet, "dup",
                {{"ch", in_.value}, {"seq", seq}});
      schedule_ack();
      return;
    case ArqRx::kNext:
      deliver(std::move(frame->payload));
      // Drain any contiguous run held back behind the gap just filled.
      while (!reorder_.empty() &&
             arq_.receive(reorder_.begin()->first) == ArqRx::kNext) {
        MessagePtr next = std::move(reorder_.begin()->second);
        reorder_.erase(reorder_.begin());
        deliver(std::move(next));
      }
      break;
    case ArqRx::kAhead: {
      // Out of order (the underlying channel reordered, or a gap was lost):
      // hold back until the gap fills. Duplicate out-of-order copies of the
      // same seq are collapsed by the map insert.
      const bool inserted =
          reorder_.emplace(seq, std::move(frame->payload)).second;
      if (!inserted) {
        ++dups_suppressed_;
        if (m_dups_ != nullptr) m_dups_->inc();
      }
      CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kNet, "ooo",
                {{"ch", in_.value},
                 {"seq", seq},
                 {"expected", arq_.recv_next()},
                 {"held", static_cast<std::uint64_t>(reorder_.size())}});
      break;
    }
  }
  schedule_ack();
}

void ReliableTransport::deliver(MessagePtr payload) {
  ++delivered_;
  deliver_(std::move(payload));
}

void ReliableTransport::schedule_ack() {
  if (ack_pending_) return;
  ack_pending_ = true;
  const std::uint64_t gen = ++ack_gen_;
  sim_.after(kAckDelay, [this, gen] {
    if (gen != ack_gen_ || !ack_pending_) return;  // piggybacked meanwhile
    ack_pending_ = false;
    send_standalone_ack();
  });
}

void ReliableTransport::send_standalone_ack() {
  if (down_) return;
  ++acks_sent_;
  if (m_acks_ != nullptr) m_acks_->inc();
  auto frame = std::make_unique<TransportFrame>();
  frame->ack = arq_.recv_next();
  CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kNet, "ack",
            {{"ch", out_.value}, {"ack", frame->ack}});
  fabric_.send(out_, std::move(frame));
}

void ReliableTransport::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down_) {
    // Stop both timers; in-flight fabric deliveries will hit the down guard.
    disarm_retx_timer();
    retx_armed_ = false;
    ++ack_gen_;
    ack_pending_ = false;
  } else {
    // Restart: resume retransmission of everything unacknowledged, then
    // re-open the send window for queued payloads (in that order — admitted
    // payloads transmit on admission and must not be sent twice). The
    // receive cursor survived the window (stable storage), so redelivered
    // frames stay exactly-once.
    rto_ = kRtoInitial;
    arq_.rewind();
    transmit_pending();
    admit_from_queue();
  }
}

}  // namespace cim::net
