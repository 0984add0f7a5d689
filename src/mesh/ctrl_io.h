// Bare ControlMsg I/O for the handshakes that run before a TcpLinkTransport
// owns a stream: the mesh join and the kRejoin exchange (mesh_node.cpp,
// link_session.cpp) — one wire-encoded control frame at a time
// (docs/BRIDGE.md "Join" and "Failure behavior"). One reader, on the node's
// EpollLoop, serves every handshake a node answers or dials, join and rejoin
// alike, each under its own budget timer, so no handshake ever parks a
// thread and a silent connection delays no other.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

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

/// Budget for each frame read off an accepted connection: its first frame,
/// and the kJoin behind a join's kHello.
inline constexpr int kInboundFrameBudgetMs = 1000;
/// Budget for each reply to a dial: the connect, our frames and the peer's
/// first reply frame share one; each further reply frame gets its own.
inline constexpr int kDialReplyBudgetMs = 2000;
/// The error read_ctrl_on_loop reports when a dial's connect failed (the
/// peer is not listening yet); compare by address.
inline constexpr char kConnectFailed[] = "connect failed";

/// Write one wire-encoded control frame to a connected fd (a control frame
/// fits any empty socket buffer). False on error.
bool send_ctrl_fd(int fd, const net::wire::ControlMsg& msg);
bool send_ctrl_fd(int fd, std::uint8_t code, std::uint64_t a, std::uint64_t b);

/// Outcome of read_ctrl_on_loop: a null `err` with the socket and the frame,
/// or an error with fd -1 (the socket is closed).
using CtrlDoneFn = std::function<void(const char* err, int fd,
                                      const net::wire::ControlMsg& msg)>;

/// Read one bare ControlMsg frame from `fd` on `loop`, bounded by a loop
/// timer of `timeout_ms`. With `first` non-empty, `fd` is a connect in
/// progress (net::tcp_dial): once it turns writable with SO_ERROR clear,
/// the `first` frames are sent, then the reply is read; a failed connect
/// reports kConnectFailed. Nothing past the frame is read: the bytes after
/// it belong to the next read or to the transport that takes the socket
/// over. `done` runs once, on the loop thread; the fd it gets is nonblocking
/// and unregistered. Call on the loop thread.
void read_ctrl_on_loop(net::EpollLoop& loop, int fd, int timeout_ms,
                       std::vector<net::wire::ControlMsg> first,
                       CtrlDoneFn done);

}  // namespace cim::mesh
