// LinkSession: the crash-tolerant session layer between mesh::MeshNode and
// net::TcpLinkTransport (docs/BRIDGE.md "Failure behavior").
//
// PR 6 made each tree edge a raw TCP stream: reliable while both processes
// live, fatal the moment one hiccups. This layer gives every edge a
// *session* that outlives any one socket:
//
//  * The sequence discipline is net::ArqCore (net/arq_core.h), the same core
//    the in-sim ReliableTransport drives: seq-stamped TransportFrames with a
//    piggybacked cumulative ACK, a journal of unacked frames, duplicate
//    drops on receive. The wire format is shared, so a capture decodes with
//    the same codec.
//  * The journal is bounded in frames and bytes; the bound is the
//    backpressure while a link is down or slow: the node's engine stops
//    stepping while any session's journal is full (full()) — degraded, not
//    dead. A frame arriving ahead of the receive cursor is a fatal sequence
//    gap: one TCP stream cannot reorder.
//  * Acks ride every data frame; a receiver with nothing to send acks
//    explicitly once its cursor runs a quarter journal past the last ack it
//    put on the wire, so a one-way flow never waits a heartbeat for room.
//  * A heartbeat tick on the shared EpollLoop sends pure-ACK frames and
//    watches the transport's last_rx_ns: a silent peer (SIGSTOP, stall)
//    flips the link to kDegraded (net.mesh.<peer>.{down,hb_miss} gauges)
//    instead of killing the node, and flips back when bytes flow again.
//  * Every socket of the session, the first included, comes from one
//    kRejoin handshake (session id + last-delivered seq): the dialer side
//    dials, the acceptor side answers on the node's listener. A session
//    starts socketless, so the first connection is a rejoin at cursor 0. A
//    dead socket (EOF, RST, write failure) retires the transport
//    incarnation and the dialer re-dials with capped exponential backoff +
//    jitter. Rejoin = ack the peer's delivery cursor + rewind the core's
//    wire cursor: the journal replays everything past it; the receive
//    cursor drops duplicates — no pair is delivered twice or lost.
//  * Every session event is spilled to the node's SpillJournal (mesh/spill.h)
//    so `cim_bridge --resume` restores the cursors and the replay window
//    after a kill -9.
//
// Threading: a single-thread object with no lock. send() (the engine, the
// convergecast and the stats plane all live on the loop), on_frame, the
// heartbeat tick, and both sides of every rejoin run on the loop thread: a
// re-dial is a loop timer that starts a nonblocking connect, whose kRejoin
// exchange is read by the loop (mesh/ctrl_io.h), and the acceptor's
// listener is a loop handler of the node. So frames reach the transport in
// seq order by construction, send() never blocks, and one thread mutates
// the session. start() and restore() run before the loop starts, stop()
// after it stopped. Other threads (perfbench's poller, bench_bridge, the
// tests) read only the accessors marked "any thread": each is one relaxed
// atomic the loop writes with a plain load + store (Published).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mesh/spill.h"
#include "net/arq_core.h"
#include "net/epoll_loop.h"
#include "net/link_transport.h"
#include "net/tcp_link.h"
#include "net/wire.h"

namespace cim::mesh {

enum class LinkState : int { kUp = 0, kDegraded = 1, kFailed = 2 };

struct SessionConfig {
  std::uint64_t session_id = 0;  // deterministic per (topology, seed, edge)
  std::uint64_t self_id = 0;     // our node id
  std::uint64_t peer_id = 0;     // neighbor node id
  std::size_t link_index = 0;    // slot in the node's spill journal
  /// True iff this side dials the edge (the higher node id dials the lower
  /// one's listener); the acceptor waits for a kRejoin on the node's
  /// listener.
  bool dialer = false;
  std::string host = "127.0.0.1";
  std::uint16_t peer_port = 0;
  int hb_interval_ms = 100;
  int liveness_timeout_ms = 2000;
  /// After this long continuously degraded the session fails (0 = never:
  /// degrade + backpressure forever, the default).
  int degraded_timeout_ms = 0;
  int backoff_initial_ms = 50;
  int backoff_max_ms = 1000;
  /// Dial attempts per outage of a formed link before the session fails
  /// (<= 0: unbounded).
  int reconnect_attempts = 40;
  net::TcpLinkConfig link;
};

/// The replay journal's bound per session: past either, full() pauses the
/// engine until acks make room.
inline constexpr std::size_t kJournalMaxFrames = 4096;
inline constexpr std::size_t kJournalMaxBytes = std::size_t{4} << 20;
/// A dialer's retry interval while its link has never formed (the peer may
/// not listen yet); backoff and --reconnect-attempts start once it formed.
inline constexpr int kJoinDialRetryMs = 100;

class LinkSession final : public net::LinkTransport {
 public:
  /// Payload delivery (loop thread), exactly once per payload per session
  /// lifetime — crashes included, via the spill journal's receive cursor.
  using DeliverFn = std::function<void(net::MessagePtr)>;

  /// `journal` may be null (no crash spill — tests). The loop must outlive
  /// stop(); the session must be destroyed only after loop.stop().
  LinkSession(SessionConfig cfg, net::EpollLoop& loop, SpillJournal* journal);
  ~LinkSession() override;
  LinkSession(const LinkSession&) = delete;
  LinkSession& operator=(const LinkSession&) = delete;

  /// Restore cursors + replay window from a loaded spill journal. Must be
  /// called before start(). The link counts as formed: its first connection
  /// is a resume, and its failed dials back off.
  void restore(const SpillLinkState& state);

  /// Start the session, socketless and down: the dialer side dials at once,
  /// the acceptor waits for the peer's kRejoin. A dialer resolves `host`
  /// here, once; every re-dial reuses the address.
  void start(DeliverFn deliver);

  /// Acceptor side of a rejoin (loop thread): `fd` carried the peer's
  /// kRejoin for this session, with the peer's delivery cursor. Answers with
  /// our own kRejoin, then trims the journal to that cursor, replays the
  /// rest on the fresh socket and flips to kUp. A cursor that one side's
  /// restart without its journal explains is refused instead: a peer that
  /// lost acknowledged frames gets kRejectLostState and this session waits
  /// on; a peer ahead of everything this side sent fails this session.
  void accept_rejoin(int fd, std::uint64_t peer_delivered);

  /// Final drain: EOF from here on is a normal goodbye, not an outage.
  void begin_shutdown();

  /// Every sent frame acknowledged (the replay journal is empty). Loop
  /// thread.
  bool drained() const { return arq_.unacked() == 0; }
  /// The journal is at its bound: the engine must not send more data until
  /// acks make room (loop thread; send() itself never blocks).
  bool full() const {
    return arq_.unacked() >= kJournalMaxFrames ||
           journal_bytes_ >= kJournalMaxBytes;
  }

  /// Close the live socket, so the peer sees EOF now. Call once the loop
  /// has stopped (or never started).
  void stop();

  // net::LinkTransport — the interconnector sends pairs through here (loop
  // thread).
  void send(net::MessagePtr msg) override;
  /// Journal depth: frames sent and not yet acknowledged. Any thread.
  std::size_t backlog() const override { return backlog_.get(); }
  bool serializing() const override { return true; }
  /// Loop thread, or after run() returned (summed over every incarnation).
  std::uint64_t wire_bytes_out() const override;
  std::uint64_t wire_bytes_in() const override;

  // ---- introspection (any thread) ------------------------------------------
  LinkState state() const { return state_.get(); }
  /// Static description of a permanent failure, or null.
  const char* error() const { return error_.get(); }
  std::uint64_t session_id() const { return cfg_.session_id; }
  std::uint64_t peer_id() const { return cfg_.peer_id; }
  /// A live socket incarnation exists right now.
  bool connected() const { return connected_.get(); }
  /// Non-ctrl payload frames sent / delivered this session (across crashes).
  std::uint64_t data_sent() const { return data_sent_.get(); }
  std::uint64_t data_delivered() const { return data_delivered_.get(); }
  // net.mesh.<peer>.* gauge sources (docs/OBSERVABILITY.md, schema v4).
  std::uint64_t hb_miss() const { return hb_miss_.get(); }
  /// Re-formations seen by this process: a degraded link coming back, or a
  /// handshake after the first. The first connection of a session never
  /// restored is no resume.
  std::uint64_t resumes() const { return resumes_.get(); }
  std::uint64_t dup_drops() const { return dup_drops_.get(); }
  bool down() const { return state() != LinkState::kUp; }

  // ---- heartbeat RTT / clock offset (loop thread, or after run() returned;
  // docs/OBSERVABILITY.md "RTT and clock offset"). Every heartbeat completes
  // an NTP-style four-timestamp exchange; samples feed the
  // net.mesh.<peer>.rtt_ns histogram and the offset table in the federation
  // snapshot.
  /// The per-edge RTT samples (ns), oldest first, bounded.
  const std::vector<std::int64_t>& rtt_samples() const { return rtt_samples_; }
  /// Pairwise clock-offset estimate (peer steady clock minus local, ns),
  /// taken from the minimum-RTT exchange seen so far — queueing delay from
  /// stalls or backpressure widens RTT but cannot corrupt this estimate.
  std::int64_t clock_offset_ns() const { return offset_ns_; }
  /// RTT (ns) of the exchange backing clock_offset_ns(); -1 until the first
  /// full exchange completes.
  std::int64_t best_rtt_ns() const { return best_rtt_ns_; }
  /// Completed exchanges (including samples dropped by the storage bound).
  std::uint64_t rtt_count() const { return rtt_count_; }

  // ---- transport stats summed across every socket incarnation (loop
  // thread, or after run() returned) -----------------------------------------
  std::uint64_t syscalls_read() const;
  std::uint64_t syscalls_write() const;
  std::uint64_t frames_coalesced() const;
  /// Always 0: no mesh sender can stall on a transport queue, which is
  /// unbounded (the journal bound pauses the engine instead). Kept for
  /// perfbench's mesh.queue_full_stalls_per_pair until that metric goes.
  std::uint64_t queue_full_stalls() const { return 0; }

 private:
  /// A value the loop writes and any thread reads: a relaxed atomic whose
  /// writer updates it with a plain load + store, never a read-modify-write.
  /// Each reader sees a counter move forward only (per-variable coherence).
  template <typename T>
  class Published {
   public:
    explicit Published(T v) : v_(v) {}
    T get() const { return v_.load(std::memory_order_relaxed); }
    void set(T v) { v_.store(v, std::memory_order_relaxed); }
    void inc() { set(get() + 1); }

   private:
    std::atomic<T> v_;
  };

  void on_frame(std::unique_ptr<net::TransportFrame> frame);
  /// Queue journal entries from the core's wire cursor on, in seq order, on
  /// the live transport.
  void pump_wire();
  void tick();
  void arm_tick();
  /// Queue a pure-ACK frame for the current receive cursor.
  void send_ack();
  void handle_ack(std::uint64_t ack);
  /// Close the live transport (if any) into the graveyard; no socket left.
  void bury_transport();
  void retire();  // current transport died: degrade, re-dial
  void fail(const char* why);
  void attach(int fd);  // new transport incarnation, registered
  /// A rejoin handshake succeeded: ack the peer's cursor, attach `fd`,
  /// replay.
  void resume(int fd, std::uint64_t peer_delivered);
  /// Dialer: arm the next dial after the capped, jittered backoff.
  void schedule_dial();
  void dial();
  /// A formed link's dial failed: count the attempt, re-arm or give up. A
  /// link that never formed retries every kJoinDialRetryMs, uncounted.
  void dial_failed();
  /// Why the peer's delivery cursor cannot continue this session (one side
  /// restarted without its spill journal), or null.
  const char* cursor_fault(std::uint64_t peer_delivered) const;
  void on_rejoin_reply(const char* err, int fd,
                       const net::wire::ControlMsg& reply);
  /// `stat` summed over the live transport and every retired one.
  std::uint64_t sum_transports(
      std::uint64_t (net::TcpLinkTransport::*stat)() const) const;

  /// Mirror the journal depth into backlog_ after the core changed it.
  void publish_backlog() { backlog_.set(arq_.unacked()); }

  SessionConfig cfg_;
  net::EpollLoop& loop_;
  SpillJournal* spill_;
  DeliverFn deliver_;

  bool shutdown_ = false;
  bool formed_ = false;  // a handshake completed here, or restore() ran
  int dial_attempts_ = 0;  // failed dials this outage

  // Session cursors and the journal of encoded unacked frames, persisted
  // via spill_. The wire cursor is claimed optimistically: if the socket
  // dies mid-send the journal still holds the frame and the next rejoin
  // rewinds.
  net::ArqCore<std::vector<std::uint8_t>> arq_;
  std::size_t journal_bytes_ = 0;
  std::uint64_t last_ack_sent_ = 0;  // receive cursor as last put on the wire
  std::int64_t degraded_since_ns_ = 0;

  // What the any-thread accessors read; only the loop writes them.
  Published<LinkState> state_{LinkState::kUp};
  Published<const char*> error_{nullptr};
  Published<bool> connected_{false};
  Published<std::size_t> backlog_{0};
  Published<std::uint64_t> data_sent_{0};
  Published<std::uint64_t> data_delivered_{0};
  Published<std::uint64_t> hb_miss_{0};
  Published<std::uint64_t> resumes_{0};
  Published<std::uint64_t> dup_drops_{0};

  // NTP four-timestamp state. The peer's latest heartbeat send time (peer clock) and our local receive time of it are echoed back on
  // our next heartbeat; a completed exchange yields one RTT/offset sample.
  static constexpr std::size_t kMaxRttSamples = 2048;
  std::uint64_t peer_hb_tx_ = 0;     // peer's latest ts_tx (peer clock)
  std::int64_t peer_hb_rx_ns_ = 0;   // local steady rx time of that
  std::vector<std::int64_t> rtt_samples_;
  std::uint64_t rtt_count_ = 0;
  std::int64_t best_rtt_ns_ = -1;
  std::int64_t offset_ns_ = 0;

  // Socket incarnations. `transport_` is the live one (null while down);
  // retired ones move to the graveyard and die with the session — an epoll
  // handler must outlive the loop's last dispatch (net/epoll_loop.h).
  std::unique_ptr<net::TcpLinkTransport> transport_;
  std::vector<std::unique_ptr<net::TcpLinkTransport>> graveyard_;

  std::uint64_t jitter_state_;  // splitmix64, seeded deterministically
  sockaddr_in peer_addr_{};     // dialer: the peer, resolved once in start()
};

}  // namespace cim::mesh
