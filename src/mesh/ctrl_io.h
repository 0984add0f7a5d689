// Bare ControlMsg I/O for the handshakes that run before a TcpLinkTransport
// owns a stream: the mesh join (mesh_node.cpp) and the kRejoin exchange
// (link_session.cpp, mesh_node.cpp) — one wire-encoded control frame at a
// time (docs/BRIDGE.md "Join" and "Failure behavior"). One frame parser
// behind two readers: blocking reads for join(), which runs before the
// node's loop does (the tests' fake peers use them too), and a reader on
// the node's EpollLoop for every rejoin a running node answers or dials, so
// no handshake ever parks a thread.
#pragma once

#include <cstdint>
#include <functional>

#include "net/epoll_loop.h"
#include "net/wire.h"

namespace cim::mesh {

/// kJoinReject reason codes (ControlMsg.b; docs/BRIDGE.md "Join").
enum RejectReason : std::uint64_t {
  kRejectWireVersion = 1,
  kRejectTopologyHash = 2,
  kRejectNotANeighbor = 3,
  kRejectDuplicateJoin = 4,
  kRejectStaleSession = 5,  // rejoin presented an unknown/old session id
};

const char* reject_reason_name(std::uint64_t reason);

/// Write one wire-encoded control frame to a blocking fd (or a fresh
/// nonblocking one: a control frame fits any empty socket buffer). False on
/// error.
bool send_ctrl_fd(int fd, const net::wire::ControlMsg& msg);
bool send_ctrl_fd(int fd, std::uint8_t code, std::uint64_t a, std::uint64_t b);

/// Read one bare ControlMsg frame from a blocking fd, bounded by SO_RCVTIMEO.
/// Returns nullptr on success, a static error description otherwise.
const char* recv_ctrl_fd(int fd, int timeout_ms, net::wire::ControlMsg& out);

/// Outcome of read_ctrl_on_loop: a null `err` with the socket and the frame,
/// or an error with fd -1 (the socket is closed).
using CtrlDoneFn = std::function<void(const char* err, int fd,
                                      const net::wire::ControlMsg& msg)>;

/// The same read on `loop`, bounded by a loop timer of `timeout_ms`. With
/// `first`, `fd` is a connect in progress (net::tcp_dial): once it turns
/// writable with SO_ERROR clear, `first` is sent, then the reply is read.
/// Nothing past the frame is read: the bytes after it belong to the
/// transport that takes the socket over. `done` runs once, on the loop
/// thread; the fd it gets is nonblocking and unregistered. Call on the loop
/// thread.
void read_ctrl_on_loop(net::EpollLoop& loop, int fd, int timeout_ms,
                       const net::wire::ControlMsg* first, CtrlDoneFn done);

}  // namespace cim::mesh
