// Bare ControlMsg I/O for the one link handshake, the kRejoin exchange that
// runs before a TcpLinkTransport owns a stream (link_session.cpp dials it,
// mesh_node.cpp answers it; docs/BRIDGE.md "Link formation"): one
// wire-encoded control frame at a time. One reader, on the node's EpollLoop,
// serves every handshake a node answers or dials, each under its own budget
// timer, so no handshake ever parks a thread and a silent connection delays
// no other.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/epoll_loop.h"
#include "net/wire.h"

namespace cim::mesh {

/// kJoinReject reason codes (ControlMsg.b; docs/BRIDGE.md "Link
/// formation"). Codes 1, 2 and 4 (wire version, topology hash, duplicate
/// join) are retired and never reused: the session id carries the first two,
/// and a second handshake for a formed edge supersedes the first.
enum RejectReason : std::uint64_t {
  kRejectNotANeighbor = 3,     // the sender is no higher-id neighbor of ours
  kRejectSessionMismatch = 5,  // its session id is not the one we hold
  kRejectLostState = 6,  // its cursor is below what it acknowledged to us
};

/// Budget for reading the handshake off an accepted connection.
inline constexpr int kInboundFrameBudgetMs = 1000;
/// Budget for a dial: the connect, our handshake and the peer's reply share
/// it.
inline constexpr int kDialReplyBudgetMs = 2000;

/// Write one wire-encoded control frame to a connected fd (a control frame
/// fits any empty socket buffer). False on error.
bool send_ctrl_fd(int fd, const net::wire::ControlMsg& msg);
bool send_ctrl_fd(int fd, std::uint8_t code, std::uint64_t a, std::uint64_t b);

/// Outcome of read_ctrl_on_loop: a null `err` with the socket and the frame,
/// or an error with fd -1 (the socket is closed).
using CtrlDoneFn = std::function<void(const char* err, int fd,
                                      const net::wire::ControlMsg& msg)>;

/// Read one bare ControlMsg frame from `fd` on `loop`, bounded by a loop
/// timer of `timeout_ms`. With `first` set, `fd` is a connect in progress
/// (net::tcp_dial): once it turns writable with SO_ERROR clear, `first` is
/// sent, then the reply is read. Nothing past the frame is read: the bytes
/// after it belong to the transport that takes the socket over. `done` runs
/// once, on the loop thread; the fd it gets is nonblocking and
/// unregistered. Call on the loop thread.
void read_ctrl_on_loop(net::EpollLoop& loop, int fd, int timeout_ms,
                       std::optional<net::wire::ControlMsg> first,
                       CtrlDoneFn done);

}  // namespace cim::mesh
