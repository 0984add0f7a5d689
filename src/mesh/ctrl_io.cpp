#include "mesh/ctrl_io.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <memory>
#include <utility>
#include <vector>

#include "net/tcp_link.h"

namespace cim::mesh {

using net::wire::ControlMsg;

const char* reject_reason_name(std::uint64_t reason) {
  switch (reason) {
    case kRejectWireVersion: return "wire version mismatch";
    case kRejectTopologyHash: return "topology hash mismatch";
    case kRejectNotANeighbor: return "not a neighbor";
    case kRejectDuplicateJoin: return "duplicate join";
    case kRejectStaleSession: return "stale session id";
    default: return "unknown reason";
  }
}

namespace {

// Largest bare control frame a handshake reads, length prefix included.
constexpr std::size_t kCtrlFrameMax = 4 + 64;

// Reads only what the frame still lacks into frame[0, got). Returns an
// error, or null: with `whole` set and `out` decoded once the frame is
// complete, unset when the fd has nothing more for now (EAGAIN).
const char* read_ctrl_frame(int fd, std::uint8_t* frame, std::size_t& got,
                            ControlMsg& out, bool& whole) {
  while (true) {
    std::size_t want = 4;
    if (got >= 4) {
      std::uint32_t body_len = 0;
      for (int i = 0; i < 4; ++i)
        body_len |= static_cast<std::uint32_t>(frame[i]) << (8 * i);
      if (body_len > kCtrlFrameMax - 4)
        return "handshake frame is not a control message";
      want = 4 + body_len;
    }
    if (got == want) {
      net::wire::DecodeResult res = net::wire::decode(frame, got);
      if (!res.ok()) return res.error;
      auto* ctrl = dynamic_cast<ControlMsg*>(res.msg.get());
      if (ctrl == nullptr) return "handshake frame is not a control message";
      out = *ctrl;
      whole = true;
      return nullptr;
    }
    const ssize_t n = ::read(fd, frame + got, want - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0) {
      return "peer closed during handshake";
    } else if (errno != EINTR) {
      return errno == EAGAIN || errno == EWOULDBLOCK ? nullptr
                                                     : "handshake read failed";
    }
  }
}

}  // namespace

bool send_ctrl_fd(int fd, const ControlMsg& msg) {
  std::vector<std::uint8_t> buf;
  net::wire::encode(msg, buf);
  const std::uint8_t* p = buf.data();
  std::size_t left = buf.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

bool send_ctrl_fd(int fd, std::uint8_t code, std::uint64_t a, std::uint64_t b) {
  ControlMsg msg;
  msg.code = code;
  msg.a = a;
  msg.b = b;
  return send_ctrl_fd(fd, msg);
}

namespace {

// One handshake on the loop, owned by its budget timer: it lives until the
// timer fires (or the stopped loop is destroyed), so no late edge and no
// late timer meets a dead object.
struct LoopCtrlReader final : net::EpollLoop::FdHandler {
  LoopCtrlReader(net::EpollLoop& on, int sock, std::vector<ControlMsg> frames,
                 CtrlDoneFn fn)
      : loop(on),
        fd(sock),
        connecting(!frames.empty()),
        first(std::move(frames)),
        done(std::move(fn)) {}
  ~LoopCtrlReader() override {
    if (fd >= 0) ::close(fd);  // the loop stopped with this one pending
  }

  void on_ready(std::uint32_t events) override {
    if (fd < 0) return;
    if (connecting) {
      if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0)
        return finish(kConnectFailed);
      connecting = false;
      for (const ControlMsg& m : first)
        if (!send_ctrl_fd(fd, m)) return finish("handshake write failed");
    }
    bool whole = false;
    const char* err = read_ctrl_frame(fd, frame, got, msg, whole);
    if (err != nullptr || whole) finish(err);
  }

  void finish(const char* err) {
    loop.remove(fd);
    if (err != nullptr) ::close(fd);
    const int sock = err != nullptr ? -1 : fd;
    fd = -1;
    std::exchange(done, nullptr)(err, sock, msg);
  }

  net::EpollLoop& loop;
  int fd;                        // -1 once finished
  bool connecting;               // `first` still to send once connected
  std::vector<ControlMsg> first;
  CtrlDoneFn done;
  std::uint8_t frame[kCtrlFrameMax] = {};
  std::size_t got = 0;
  ControlMsg msg;
};

}  // namespace

void read_ctrl_on_loop(net::EpollLoop& loop, int fd, int timeout_ms,
                       std::vector<ControlMsg> first, CtrlDoneFn done) {
  net::set_nonblocking(fd);
  auto reader = std::make_shared<LoopCtrlReader>(loop, fd, std::move(first),
                                                 std::move(done));
  loop.add(fd, reader.get());
  loop.post_after(timeout_ms, [reader] {
    if (reader->fd >= 0) reader->finish("handshake timed out");
  });
}

}  // namespace cim::mesh
