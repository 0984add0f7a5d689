// TCP byte pipe: the inter-IS channel as a real byte stream between OS
// processes (tools/cim_bridge, docs/BRIDGE.md).
//
// Framing: the stream carries wire-encoded TransportFrames (docs/WIRE.md
// type 7). This class only moves them: send_bytes() queues one frame the
// caller already encoded, and start_frames() hands every decoded frame —
// data, pure ACK or heartbeat — to a callback, in stream order. It holds no
// sequence state and polices nothing: stamping, acknowledgement, duplicate
// suppression and replay belong to the ARQ core (net/arq_core.h) that
// mesh::LinkSession drives on top of it. Kernel TCP supplies order and
// integrity within one socket; the session supplies them across sockets.
// A mesh link opens with a handshake (docs/BRIDGE.md "Link formation"): one
// *bare* ControlMsg frame each way, then TransportFrames. The transport owns
// the socket from its first byte, the handshake included: start_handshake()
// hands the first decoded frame up on its own, or why the stream ended
// first, and every later frame goes to the frame callback. So one object
// reads each socket, and nothing else parses its stream.
//
// I/O model: nonblocking, driven by a shared net::EpollLoop — edge-triggered
// readiness, one loop thread serving every link of the mesh node. Frames
// wait on a per-peer send queue; a flush task drains it with writev
// scatter/gather. The first frame of a burst posts that task and later ones
// ride it: the task runs at the end of the current loop iteration, so
// everything an iteration sends to one peer (an engine batch, an IS-process
// fan-out, a forwarding storm) shares one syscall. The queue itself is
// unbounded: the embedder bounds what it queues (mesh::LinkSession's
// journal bound pauses the engine; bench_bridge's flood waits on backlog()).
//
// Threading: a single-thread object. send_bytes(), flush(), kick(), close()
// and every accessor run on the loop's thread, or while the loop is not
// running (before run(), after it returned); the callbacks and the deferred
// flushes run on the loop thread. Nothing here is locked or atomic: the
// embedder folds the counters into its metrics from the loop or after run()
// returns, e.g. into the net.mesh.* counters.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/epoll_loop.h"
#include "net/fault_inject.h"
#include "net/wire.h"

namespace cim::net {

/// Bind + listen on `port` (all interfaces). Returns the nonblocking
/// listener fd, for an EpollLoop handler to drain with tcp_accept; throws
/// InvariantViolation on socket errors. The backlog is SOMAXCONN: the loop
/// accepts every connection at once, so the queue only absorbs a burst, and
/// a burst of stray connections must not make the kernel drop a real
/// dialer's SYN (docs/BRIDGE.md "Join").
int tcp_listen(std::uint16_t port);

/// Accept one queued connection from a tcp_listen listener.
/// Connections reset while queued are skipped. Returns the connected fd, or
/// -1 once the queue is empty.
int tcp_accept(int listener_fd);

/// Resolve host:port to an IPv4 address. May block on a name lookup;
/// returns false if the host cannot be resolved.
bool tcp_resolve(const char* host, std::uint16_t port, sockaddr_in& out);

/// Start one nonblocking connect to `addr` (from tcp_resolve) for a
/// transport to finish: a write queued meanwhile waits for the EPOLLOUT edge
/// of the completed connect, and a refused one fails that write (or the
/// read) like any dead stream. Never blocks; returns -1 on an immediate
/// failure.
int tcp_dial(const sockaddr_in& addr);

/// Set O_NONBLOCK (throws InvariantViolation on failure).
void set_nonblocking(int fd);

/// The optional chaos hooks (docs/FAULTS.md "Socket-level chaos").
struct TcpLinkConfig {
  /// Borrowed fault-injection switchboard; null = no faults. The hooks act
  /// once the transport has sent a frame and has no handshake pending, so a
  /// link's opening exchange is never faulted.
  FaultHooks* faults = nullptr;
};

class TcpLinkTransport final : private EpollLoop::FdHandler {
 public:
  /// Takes ownership of the connected socket `fd`. The loop is borrowed; the
  /// transport must be destroyed only after `loop.stop()` (see epoll_loop.h).
  TcpLinkTransport(int fd, EpollLoop& loop, TcpLinkConfig config = {});
  ~TcpLinkTransport() override;
  TcpLinkTransport(const TcpLinkTransport&) = delete;
  TcpLinkTransport& operator=(const TcpLinkTransport&) = delete;

  using FrameFn = std::function<void(std::unique_ptr<TransportFrame>)>;
  /// The handshake's outcome: a null `err` with the peer's frame, or why
  /// the stream ended before it (`msg` is then empty).
  using HandshakeFn =
      std::function<void(const char* err, const wire::ControlMsg& msg)>;

  /// Switch the fd nonblocking, register it with the loop, and hand every
  /// decoded TransportFrame to `fn` on the loop thread. Call once, or
  /// start_handshake() instead.
  void start_frames(FrameFn fn);

  /// Switch the fd nonblocking and register it with the loop for a link
  /// that opens with a handshake. The first decoded frame must be a bare
  /// ControlMsg; it goes to `done`, once, on the loop thread. If the stream
  /// ends first — EOF, a read or write error, an undecodable frame or one of
  /// another type — or `budget_ms` passes, `done` gets the error instead, at
  /// once. `done` keeps the link by pointing the frame callback at its new
  /// owner (set_frame_fn), or close()s it; the bytes after the handshake
  /// frame reach that callback. The budget is a loop timer that refers to
  /// this transport: it must not be destroyed while the loop may run again
  /// before the budget ends.
  void start_handshake(int budget_ms, HandshakeFn done);

  /// Hand every later decoded TransportFrame to `fn` (from a handshake's
  /// `done`, which may run inside this transport's own dispatch).
  void set_frame_fn(FrameFn fn) { frame_fn_ = std::move(fn); }

  /// Enqueue one pre-encoded frame; it leaves with the next flush. Never
  /// blocks. Loop thread, or before run(). Returns false if the stream has
  /// already failed (the bytes are dropped — redelivery is the caller's
  /// journal's job).
  bool send_bytes(const std::uint8_t* data, std::size_t size);

  /// Write the queue out now, until it is empty or the socket is full. The
  /// loop does this at the end of the iteration; a handshake frame, which
  /// must leave in a write of its own, calls it at once.
  void flush();

  /// Re-arm the flusher (after clearing an injected stall, or on resume).
  void kick();

  /// Unregister from the loop, shut the socket down and close it, drop any
  /// pending handshake and free the buffers: a closed transport keeps its
  /// counters and nothing else. Idempotent; called by the destructor if
  /// needed.
  void close();

  // ---- introspection (loop thread, or after run() returned) ----------------
  /// Encoded frames queued toward the peer.
  std::size_t backlog() const { return sendq_.size(); }
  std::uint64_t wire_bytes_out() const { return bytes_out_; }
  std::uint64_t wire_bytes_in() const { return bytes_in_; }
  /// Peer closed the stream (EOF) or the stream failed.
  bool peer_closed() const { return peer_closed_; }
  /// Static description of a stream/decode failure, or null.
  const char* error() const { return error_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  /// Steady-clock nanosecond stamp of the last bytes read off the socket
  /// (start time until then). The session layer's liveness timeout reads
  /// this: a peer that has gone silent for longer than the budget is
  /// presumed stalled and the link degrades (docs/BRIDGE.md).
  std::int64_t last_rx_ns() const { return last_rx_ns_; }

  // ---- net.mesh.* accounting (docs/OBSERVABILITY.md) -----------------------
  /// read() syscalls issued by the receive path.
  std::uint64_t syscalls_read() const { return syscalls_read_; }
  /// writev()/send() syscalls issued by the send path.
  std::uint64_t syscalls_write() const { return syscalls_write_; }
  /// Frames that left the queue in a writev batch of two or more.
  std::uint64_t frames_coalesced() const { return frames_coalesced_; }

 private:
  using Buffer = std::vector<std::uint8_t>;

  // EpollLoop::FdHandler.
  void on_ready(std::uint32_t events) override;

  void start();  // nonblocking, registered
  void drain_input();
  /// False on a decode/protocol error, or once a callback closed the stream.
  bool parse_frames();
  /// The stream is dead: record why, and fail a pending handshake.
  void fail(const char* error);
  /// The fault hooks in force: none until this end has sent a frame and no
  /// handshake is pending.
  FaultHooks* faults() const;

  int fd_;
  EpollLoop& loop_;
  TcpLinkConfig config_;
  HandshakeFn handshake_fn_;  // set while the handshake frame is awaited
  FrameFn frame_fn_;
  bool started_ = false;
  bool closed_ = false;

  // ---- send side -----------------------------------------------------------
  std::deque<Buffer> sendq_;          // encoded frames, FIFO
  std::vector<Buffer> free_bufs_;     // recycled frame buffers
  std::size_t send_off_ = 0;          // bytes of sendq_.front() already written
  bool flush_armed_ = false;          // a flush task or EPOLLOUT edge is due

  // ---- receive side --------------------------------------------------------
  Buffer inbuf_;
  std::size_t in_off_ = 0;   // parse offset into inbuf_

  std::uint64_t bytes_out_ = 0;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t syscalls_read_ = 0;
  std::uint64_t syscalls_write_ = 0;
  std::uint64_t frames_coalesced_ = 0;
  std::int64_t last_rx_ns_ = 0;
  bool peer_closed_ = false;
  const char* error_ = nullptr;
};

}  // namespace cim::net
