#include "mesh/link_session.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "mesh/ctrl_io.h"

namespace cim::mesh {

namespace {

using net::steady_ns;
using net::wire::ControlMsg;

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

LinkSession::LinkSession(SessionConfig cfg, net::EpollLoop& loop,
                         SpillJournal* journal)
    : cfg_(std::move(cfg)),
      loop_(loop),
      spill_(journal),
      jitter_state_(cfg_.session_id ^ (cfg_.self_id << 32) ^ 0xC1A05EEDULL) {}

LinkSession::~LinkSession() { stop(); }

void LinkSession::restore(const SpillLinkState& s) {
  CIM_CHECK_MSG(!deliver_, "restore() must precede start()");
  data_sent_.set(s.data_sent);
  data_delivered_.set(s.data_delivered);
  last_ack_sent_ = s.recv_expected;
  journal_bytes_ = 0;
  for (const auto& f : s.frames) journal_bytes_ += f.size();
  arq_.restore({s.send_next, s.recv_expected, s.frames});
  publish_backlog();
  formed_ = true;  // an earlier generation formed the link
}

void LinkSession::attach(int fd) {
  transport_ =
      std::make_unique<net::TcpLinkTransport>(fd, loop_, cfg_.link);
  transport_->start_frames([this](std::unique_ptr<net::TransportFrame> f) {
    on_frame(std::move(f));
  });
  connected_.set(true);
}

void LinkSession::start(DeliverFn deliver) {
  deliver_ = std::move(deliver);
  // No socket yet: the link is down until its handshake completes. The
  // dialer dials at once (backoff only follows a failed attempt); the
  // acceptor waits for the peer's handshake on the node's listener.
  state_.set(LinkState::kDegraded);
  degraded_since_ns_ = steady_ns();
  // Resolve the peer once, here on the caller's thread: a name lookup must
  // not stall the loop that every re-dial runs on.
  if (cfg_.dialer) {
    if (net::tcp_resolve(cfg_.host.c_str(), cfg_.peer_port, peer_addr_))
      dial();
    else
      fail("session: cannot resolve the peer host");
  }
  arm_tick();
}

void LinkSession::stop() { bury_transport(); }

void LinkSession::begin_shutdown() { shutdown_ = true; }

void LinkSession::handle_ack(std::uint64_t ack) {
  if (!arq_.ack(ack, [this](const auto& e) {
        journal_bytes_ -= e.payload.size();
      }))
    return;
  publish_backlog();
  if (spill_ != nullptr) spill_->record_acked(cfg_.link_index, arq_.acked());
}

void LinkSession::bury_transport() {
  if (transport_ != nullptr) {
    transport_->close();
    graveyard_.push_back(std::move(transport_));
    connected_.set(false);
  }
}

void LinkSession::retire() {
  bury_transport();
  if (state() == LinkState::kUp) {
    state_.set(LinkState::kDegraded);
    degraded_since_ns_ = steady_ns();
  }
  schedule_dial();
}

void LinkSession::fail(const char* why) {
  if (state() == LinkState::kFailed) return;
  error_.set(why);
  state_.set(LinkState::kFailed);
  bury_transport();
}

void LinkSession::send(net::MessagePtr msg) {
  // Loop thread. The journal bound is enforced by the caller — the engine
  // pauses while full() — so a batch may overshoot it by a few frames.
  if (state() == LinkState::kFailed) return;
  const bool is_ctrl = std::strcmp(msg->type_name(), "wire.ctrl") == 0;
  // Stats frames ride the session like control traffic: journaled and
  // replayed for FIFO integrity, but excluded from the pair accounting the
  // done/bye convergecast drains against (docs/BRIDGE.md).
  const bool is_meta =
      is_ctrl || std::strcmp(msg->type_name(), "wire.stats") == 0;
  std::uint8_t ctrl_code = 0;
  if (is_ctrl) ctrl_code = static_cast<const ControlMsg&>(*msg).code;

  auto& entry = arq_.stamp();
  net::TransportFrame frame;
  frame.seq = entry.seq;
  frame.ack = arq_.recv_next();
  last_ack_sent_ = frame.ack;
  frame.payload = std::move(msg);
  std::vector<std::uint8_t>& buf = entry.payload;
  net::wire::encode(frame, buf);

  if (!is_meta) data_sent_.inc();
  journal_bytes_ += buf.size();
  publish_backlog();
  if (spill_ != nullptr) {
    spill_->record_sent(cfg_.link_index, data_sent_.get(), buf.data(),
                        buf.size());
    if (is_ctrl && (ctrl_code == ControlMsg::kDone ||
                    ctrl_code == ControlMsg::kBye))
      spill_->record_ctrl_sent(cfg_.link_index, ctrl_code);
  }
  pump_wire();
}

void LinkSession::pump_wire() {
  if (transport_ == nullptr) return;
  while (const auto* entry = arq_.next_to_wire()) {
    // A failed send just means the socket died mid-frame: the journal still
    // holds everything unacked and the next rejoin rewinds the wire cursor.
    if (!transport_->send_bytes(entry->payload.data(), entry->payload.size()))
      return;
  }
}

void LinkSession::on_frame(std::unique_ptr<net::TransportFrame> frame) {
  handle_ack(frame->ack);
  if (frame->ts_tx != 0) {
    // Heartbeat timestamps (wire transport v2). With the echo fields set
    // this frame completes an NTP four-timestamp exchange:
    //   t1 = our earlier send (local clock, echoed back)
    //   t2 = peer's receive of it, t3 = peer's send (peer clock)
    //   t4 = now (local clock)
    // rtt subtracts the peer's hold time, so it measures the path alone;
    // offset = ((t2-t1)+(t3-t4))/2 is peer-minus-local, and keeping the
    // minimum-RTT exchange bounds its error by rtt/2 — injected stalls
    // widen RTT but can only make us *keep* an older, tighter estimate.
    const std::int64_t t4 = steady_ns();
    if (frame->ts_orig != 0) {
      const auto t1 = static_cast<std::int64_t>(frame->ts_orig);
      const auto t2 = static_cast<std::int64_t>(frame->ts_rx);
      const auto t3 = static_cast<std::int64_t>(frame->ts_tx);
      const std::int64_t rtt = (t4 - t1) - (t3 - t2);
      if (rtt >= 0) {
        ++rtt_count_;
        if (rtt_samples_.size() < kMaxRttSamples)
          rtt_samples_.push_back(rtt);
        if (best_rtt_ns_ < 0 || rtt < best_rtt_ns_) {
          best_rtt_ns_ = rtt;
          offset_ns_ = ((t2 - t1) + (t3 - t4)) / 2;
        }
      }
    }
    peer_hb_tx_ = frame->ts_tx;
    peer_hb_rx_ns_ = t4;
  }
  if (!frame->payload) return;  // pure ACK / heartbeat
  switch (arq_.receive(frame->seq)) {
    case net::ArqRx::kDuplicate:
      // Replay overlap after a rejoin (or an in-flight frame racing one):
      // already delivered, drop — this is the zero-dup guarantee.
      dup_drops_.inc();
      return;
    case net::ArqRx::kAhead:
      fail("session: sequence gap on an ordered stream");
      return;
    case net::ArqRx::kNext:
      break;
  }
  const bool is_ctrl =
      std::strcmp(frame->payload->type_name(), "wire.ctrl") == 0;
  const bool is_meta =
      is_ctrl ||
      std::strcmp(frame->payload->type_name(), "wire.stats") == 0;
  if (!is_meta) data_delivered_.inc();
  if (spill_ != nullptr) {
    // Record-then-deliver: once the cursor is on disk the frame is
    // never accepted again, so a crash between the two leaves at most a
    // recorded-but-unapplied write — invisible, which causal memory
    // explicitly allows; a duplicate apply would not be.
    spill_->record_delivered(cfg_.link_index, arq_.recv_next(),
                             data_delivered_.get());
  }
  if (is_ctrl) {
    const auto& ctrl = static_cast<const ControlMsg&>(*frame->payload);
    if (ctrl.code == ControlMsg::kDone || ctrl.code == ControlMsg::kBye) {
      if (spill_ != nullptr)
        spill_->record_ctrl_delivered(cfg_.link_index, ctrl.code, ctrl.a);
      // Ack the termination frames at once: the peer closes its socket as
      // soon as its journal drains, so leaving this ack to the next
      // heartbeat would strand the sender's last frame behind an EOF —
      // a spurious re-dial or a wait through the rejoin grace window.
      send_ack();
    }
  }
  // One-way flow: a receiver with no data of its own would otherwise ack
  // only on its heartbeat, and the sender would sit on a full journal for
  // a heartbeat interval per fill.
  if (arq_.recv_next() - last_ack_sent_ >= kJournalMaxFrames / 4)
    send_ack();
  deliver_(std::move(frame->payload));
}

void LinkSession::send_ack() {
  if (transport_ == nullptr) return;
  net::TransportFrame ack;
  ack.ack = arq_.recv_next();
  last_ack_sent_ = ack.ack;
  std::vector<std::uint8_t> buf;
  net::wire::encode(ack, buf);
  transport_->send_bytes(buf.data(), buf.size());
}

void LinkSession::arm_tick() {
  loop_.post_after(cfg_.hb_interval_ms, [this] { tick(); });
}

void LinkSession::tick() {
  const std::int64_t now = steady_ns();
  net::TcpLinkTransport* t = transport_.get();
  if (t != nullptr) {
    if (t->error() != nullptr || t->peer_closed()) {
      if (shutdown_ && arq_.unacked() == 0) {
        // Clean goodbye during the final drain: retire quietly, stay kUp.
        bury_transport();
      } else {
        retire();
      }
    } else {
      const std::int64_t silence = now - t->last_rx_ns();
      if (silence > std::int64_t{cfg_.liveness_timeout_ms} * 1'000'000) {
        // Peer is silent (SIGSTOP, stall): degraded, not dead. The engine
        // stays paused on the journal bound; delivery resumes the moment
        // bytes flow again.
        hb_miss_.inc();
        if (state() == LinkState::kUp) {
          state_.set(LinkState::kDegraded);
          degraded_since_ns_ = now;
        }
      } else if (state() == LinkState::kDegraded) {
        state_.set(LinkState::kUp);
        resumes_.inc();
      }
      if (t->backlog() < 16) {
        // Heartbeat: a pure-ACK frame. Doubles as ack carriage during the
        // mutual drain-wait at shutdown (each side's journal empties on
        // the other's heartbeats alone).
        net::TransportFrame hb;
        hb.ack = arq_.recv_next();
        last_ack_sent_ = hb.ack;
        // NTP exchange (docs/OBSERVABILITY.md): echo the peer's latest
        // heartbeat send time and our receive time of it, stamp our own
        // send time. Data frames never carry these, so only heartbeats
        // pay the 24-byte v2 tail.
        hb.ts_orig = peer_hb_tx_;
        hb.ts_rx = static_cast<std::uint64_t>(peer_hb_rx_ns_);
        hb.ts_tx = static_cast<std::uint64_t>(now);
        std::vector<std::uint8_t> buf;
        net::wire::encode(hb, buf);
        t->send_bytes(buf.data(), buf.size());
      } else {
        // Deep backlog: re-post a flush in case the armed flusher stalled
        // without a pending EPOLLOUT edge (a cleared injected stall, a
        // missed edge) — the tick doubles as the flusher's watchdog.
        t->kick();
      }
    }
  }
  if (state() == LinkState::kDegraded && cfg_.degraded_timeout_ms > 0 &&
      now - degraded_since_ns_ >
          std::int64_t{cfg_.degraded_timeout_ms} * 1'000'000) {
    fail("session: degraded past the failure budget");
  }
  if (state() != LinkState::kFailed) arm_tick();
}

void LinkSession::schedule_dial() {
  // A dialer's socket comes back only through its own dial, so at most one
  // dial is ever armed.
  if (!cfg_.dialer || state() == LinkState::kFailed) return;
  // Capped exponential backoff with deterministic jitter so two dialers
  // sharing a host never re-dial in lockstep.
  const int shift = std::min(dial_attempts_, 10);
  std::int64_t delay = std::int64_t{cfg_.backoff_initial_ms} << shift;
  delay = std::min<std::int64_t>(delay, cfg_.backoff_max_ms);
  delay += static_cast<std::int64_t>(
      splitmix64(jitter_state_) % (static_cast<std::uint64_t>(delay) / 2 + 1));
  loop_.post_after(static_cast<int>(delay), [this] { dial(); });
}

void LinkSession::dial() {
  if (state() == LinkState::kFailed) return;
  const int fd = net::tcp_dial(peer_addr_);
  if (fd < 0) {
    dial_failed();
    return;
  }
  ControlMsg rejoin;
  rejoin.code = ControlMsg::kRejoin;
  rejoin.a = cfg_.self_id;
  rejoin.b = cfg_.session_id;
  rejoin.c = arq_.recv_next();
  // Time-bounded: a full or unserviced listener backlog costs one handshake
  // budget, not minutes of kernel SYN retries.
  read_ctrl_on_loop(loop_, fd, kDialReplyBudgetMs, rejoin,
                    [this](const char* err, int sock, const ControlMsg& reply) {
                      on_rejoin_reply(err, sock, reply);
                    });
}

void LinkSession::on_rejoin_reply(const char* err, int fd,
                                  const ControlMsg& reply) {
  if (err == nullptr && reply.code == ControlMsg::kRejoin &&
      reply.b == cfg_.session_id) {
    if (const char* why = cursor_fault(reply.c)) {
      ::close(fd);
      fail(why);
      return;
    }
    dial_attempts_ = 0;
    resume(fd, reply.c);
    return;
  }
  if (fd >= 0) ::close(fd);
  if (err == nullptr && reply.code == ControlMsg::kJoinReject) {
    // The peer refused this link: it is built or launched for another mesh
    // (spec file, seed, wire version), or this node restarted without its
    // journal. Another dial would only be refused again, and replaying into
    // a different session would corrupt causal order.
    fail(reply.b == kRejectNotANeighbor ? "rejected by the peer: not a neighbor"
         : reply.b == kRejectLostState
             ? "rejected by the peer: this node lost frames the peer had "
               "acknowledged (restarted without --resume?)"
             : "rejected by the peer: session id mismatch (spec file, seed "
               "or wire version differ)");
    return;
  }
  dial_failed();
}

const char* LinkSession::cursor_fault(std::uint64_t peer_delivered) const {
  // Both cursors survive a crash in the spill journal, which records a frame
  // before it is sent and a delivery before it is acked: the peer's cursor
  // lies in [acked(), send_next()] unless one side restarted without it.
  if (peer_delivered < arq_.acked())
    return "session: the peer lost frames it had acknowledged (restarted "
           "without --resume?)";
  if (peer_delivered > arq_.send_next())
    return "session: the peer delivered frames this node never sent (this "
           "node restarted without --resume?)";
  return nullptr;
}

void LinkSession::dial_failed() {
  if (!formed_) {
    // A link that never formed is still joining, and its peer may not
    // listen yet: retry soon and uncounted. The join deadline bounds this.
    loop_.post_after(kJoinDialRetryMs, [this] { dial(); });
    return;
  }
  ++dial_attempts_;
  if (cfg_.reconnect_attempts > 0 && dial_attempts_ >= cfg_.reconnect_attempts)
    fail("session: reconnect attempts exhausted");
  else
    schedule_dial();
}

void LinkSession::accept_rejoin(int fd, std::uint64_t peer_delivered) {
  if (const char* why = cursor_fault(peer_delivered)) {
    if (peer_delivered < arq_.acked()) {
      // The dialer restarted without its journal. Refuse it by name and
      // keep this session as it is, for the dialer's real --resume.
      send_ctrl_fd(fd, ControlMsg::kJoinReject, cfg_.self_id,
                   kRejectLostState);
    } else {
      fail(why);  // this node restarted without its journal
    }
    ::close(fd);
    return;
  }
  ControlMsg reply;
  reply.code = ControlMsg::kRejoin;
  reply.a = cfg_.self_id;
  reply.b = cfg_.session_id;
  reply.c = arq_.recv_next();
  // Reply before any replay frame can enter the stream: the dialer reads
  // exactly one control frame, and TCP keeps the order.
  if (!send_ctrl_fd(fd, reply)) {
    ::close(fd);
    return;
  }
  resume(fd, peer_delivered);
}

void LinkSession::resume(int fd, std::uint64_t peer_delivered) {
  if (state() == LinkState::kFailed) {
    ::close(fd);
    return;
  }
  if (transport_ != nullptr) retire();  // superseded incarnation
  handle_ack(peer_delivered);
  attach(fd);
  // Rewind the wire cursor to the first unacked frame: this pump IS the
  // replay. Duplicates (an ack racing the replay) die at the peer's receive
  // cursor.
  arq_.rewind();
  state_.set(LinkState::kUp);
  // The first connection forms the link; every later one re-forms it.
  if (std::exchange(formed_, true)) resumes_.inc();
  pump_wire();
}

std::uint64_t LinkSession::sum_transports(
    std::uint64_t (net::TcpLinkTransport::*stat)() const) const {
  std::uint64_t n = transport_ ? (*transport_.*stat)() : 0;
  for (const auto& g : graveyard_) n += (*g.*stat)();
  return n;
}

std::uint64_t LinkSession::wire_bytes_out() const {
  return sum_transports(&net::TcpLinkTransport::wire_bytes_out);
}
std::uint64_t LinkSession::wire_bytes_in() const {
  return sum_transports(&net::TcpLinkTransport::wire_bytes_in);
}
std::uint64_t LinkSession::syscalls_read() const {
  return sum_transports(&net::TcpLinkTransport::syscalls_read);
}
std::uint64_t LinkSession::syscalls_write() const {
  return sum_transports(&net::TcpLinkTransport::syscalls_write);
}
std::uint64_t LinkSession::frames_coalesced() const {
  return sum_transports(&net::TcpLinkTransport::frames_coalesced);
}

}  // namespace cim::mesh
