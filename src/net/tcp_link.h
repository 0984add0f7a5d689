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
// The mesh's link handshake exchanges *bare* ControlMsg frames on the raw
// fd (mesh/ctrl_io.h) before a pipe takes over the stream; it runs on the
// same loop, over tcp_accept / tcp_dial sockets.
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
// Threading: a single-thread object. send_bytes(), kick(), close() and every
// accessor run on the loop's thread, or while the loop is not running
// (before run(), after it returned); the frame callback and every flush run
// on the loop thread. Nothing here is locked or atomic: the embedder folds
// the counters into its metrics from the loop or after run() returns, e.g.
// into the net.mesh.* counters.
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

/// Blocking connect to host:port, retrying (100ms apart) while the peer is
/// not yet listening — for the tests' fake peers; a mesh node dials with
/// tcp_dial. Returns the connected fd; throws after `retries` failures.
int tcp_connect(const char* host, std::uint16_t port, int retries = 100);

/// Start one nonblocking connect to `addr` (from tcp_resolve) for an
/// EpollLoop to finish: the fd turns writable when the attempt ends, and
/// SO_ERROR says how. Never blocks; returns -1 on an immediate failure.
int tcp_dial(const sockaddr_in& addr);

/// Set O_NONBLOCK (throws InvariantViolation on failure).
void set_nonblocking(int fd);

/// The optional chaos hooks (docs/FAULTS.md "Socket-level chaos").
struct TcpLinkConfig {
  /// Borrowed fault-injection switchboard; null = no faults.
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

  /// Switch the fd nonblocking, register it with the loop, and hand every
  /// decoded TransportFrame to `fn` on the loop thread. Call once.
  using FrameFn = std::function<void(std::unique_ptr<TransportFrame>)>;
  void start_frames(FrameFn fn);

  /// Enqueue one pre-encoded frame; it leaves with the next flush. Never
  /// blocks. Loop thread, or before run(). Returns false if the stream has
  /// already failed (the bytes are dropped — redelivery is the caller's
  /// journal's job).
  bool send_bytes(const std::uint8_t* data, std::size_t size);

  /// Re-arm the flusher (after clearing an injected stall, or on resume).
  void kick();

  /// Unregister from the loop and shut the socket down. Idempotent; called
  /// by the destructor if needed.
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

  void flush();  // loop thread: writev the queue until empty or EAGAIN
  void drain_input();
  bool parse_frames();  // false on a decode/protocol error
  void fail(const char* error);

  int fd_;
  EpollLoop& loop_;
  TcpLinkConfig config_;
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
