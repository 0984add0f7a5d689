#include "net/tcp_link.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "net/wire.h"

namespace cim::net {

namespace {

// Frames batched into one writev call. Well below IOV_MAX everywhere; large
// enough that an IS fan-out burst or a forwarding storm shares one syscall.
constexpr std::size_t kMaxIov = 64;
constexpr std::size_t kReadChunk = 64 * 1024;
// Recycled frame buffers kept per transport (beyond this they are freed).
constexpr std::size_t kMaxFreeBufs = 64;

void set_nodelay(int fd) {
  // Mesh frames are small and latency-bound; Nagle would double-batch what
  // the send queue already coalesces.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CIM_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "cannot set O_NONBLOCK: " << std::strerror(errno));
}

int tcp_listen(std::uint16_t port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  CIM_CHECK_MSG(listener >= 0, "socket() failed: " << std::strerror(errno));
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listener);
    CIM_CHECK_MSG(false, "bind(:" << port << ") failed: "
                                  << std::strerror(err));
  }
  if (::listen(listener, SOMAXCONN) != 0) {
    const int err = errno;
    ::close(listener);
    CIM_CHECK_MSG(false, "listen() failed: " << std::strerror(err));
  }
  return listener;
}

int tcp_accept(int listener_fd) {
  while (true) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    // A queued connection reset before this accept, or a signal: others
    // may still be queued behind it.
    if (errno == ECONNABORTED || errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;  // queue empty
    CIM_CHECK_MSG(false, "accept() failed: " << std::strerror(errno));
  }
}

bool tcp_resolve(const char* host, std::uint16_t port, sockaddr_in& out) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host, port_str.c_str(), &hints, &res) != 0) return false;
  std::memcpy(&out, res->ai_addr, sizeof(out));
  ::freeaddrinfo(res);
  return true;
}

int tcp_dial(const sockaddr_in& addr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

TcpLinkTransport::TcpLinkTransport(int fd, EpollLoop& loop,
                                   TcpLinkConfig config)
    : fd_(fd), loop_(loop), config_(config) {
  CIM_CHECK(fd >= 0);
}

TcpLinkTransport::~TcpLinkTransport() { close(); }

void TcpLinkTransport::close() {
  if (closed_) return;
  closed_ = true;
  handshake_fn_ = nullptr;
  if (started_) loop_.remove(fd_);
  ::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  // The fd is gone, so the EOF that would normally set peer_closed_ will
  // never be read: mark the stream dead here, so later sends drop. A closed
  // transport lives on until the loop has stopped (net/epoll_loop.h), and a
  // dialer buries one per failed attempt: it keeps no buffer.
  peer_closed_ = true;
  inbuf_ = Buffer();
  in_off_ = 0;
  sendq_.clear();
  sendq_.shrink_to_fit();
  send_off_ = 0;
  free_bufs_ = std::vector<Buffer>();
}

void TcpLinkTransport::start() {
  CIM_CHECK_MSG(!started_, "a transport is started once");
  set_nonblocking(fd_);
  last_rx_ns_ = steady_ns();
  started_ = true;
  loop_.add(fd_, this);
}

void TcpLinkTransport::start_frames(FrameFn fn) {
  frame_fn_ = std::move(fn);
  start();
}

void TcpLinkTransport::start_handshake(int budget_ms, HandshakeFn done) {
  handshake_fn_ = std::move(done);
  start();
  // A transport lives until its loop has stopped (net/epoll_loop.h), so the
  // timer never meets a dead one; close() disarms it.
  loop_.post_after(budget_ms, [this] {
    if (handshake_fn_) fail("tcp link: handshake timed out");
  });
}

void TcpLinkTransport::kick() {
  loop_.post([this] { flush(); });
}

void TcpLinkTransport::fail(const char* error) {
  error_ = error;
  peer_closed_ = true;
  // Before its handshake a link has no owner to poll it: tell the one
  // waiting for the handshake, now.
  if (handshake_fn_)
    std::exchange(handshake_fn_, nullptr)(error, wire::ControlMsg{});
}

FaultHooks* TcpLinkTransport::faults() const {
  // The hooks model a socket misbehaving under a formed link. Sparing the
  // opening exchange lets a test arm them before the mesh forms.
  return frames_sent_ > 0 && !handshake_fn_ ? config_.faults : nullptr;
}

bool TcpLinkTransport::send_bytes(const std::uint8_t* data,
                                  std::size_t size) {
  CIM_DCHECK_MSG(started_, "send_bytes() before the transport started");
  CIM_DCHECK_MSG(loop_.owned_by_caller(), "send_bytes() off the loop thread");
  if (peer_closed_) return false;

  Buffer buf;
  if (!free_bufs_.empty()) {
    buf = std::move(free_bufs_.back());
    free_bufs_.pop_back();
    buf.clear();
  }
  buf.insert(buf.end(), data, data + size);
  sendq_.push_back(std::move(buf));
  if (!flush_armed_) {
    // One task per burst: frames enqueued while it is pending share its
    // writev batches — this is where the syscall coalescing comes from. The
    // task runs at the end of the current loop iteration.
    flush_armed_ = true;
    loop_.post([this] { flush(); });
  }
  return true;
}

void TcpLinkTransport::flush() {
  // Loop thread only. A closed transport's fd number may already belong to
  // another socket.
  if (closed_) return;
  FaultHooks* hooks = faults();
  while (!sendq_.empty()) {
    if (hooks != nullptr &&
        hooks->stall_writes.load(std::memory_order_relaxed)) {
      // Injected stall: behave exactly like a full kernel buffer. kick()
      // resumes the flusher once the fault is cleared.
      flush_armed_ = true;
      return;
    }
    if (hooks != nullptr) {
      // Loop thread only, so a plain load/store countdown is race-free.
      const int left = hooks->fail_writes_after.load(std::memory_order_relaxed);
      if (left == 0) {
        fail("tcp link: injected write failure");
        return;
      }
      if (left > 0)
        hooks->fail_writes_after.store(left - 1, std::memory_order_relaxed);
    }
    iovec iov[kMaxIov];
    const std::size_t n_bufs = std::min(sendq_.size(), kMaxIov);
    std::size_t total = 0;
    for (std::size_t i = 0; i < n_bufs; ++i) {
      const Buffer& b = sendq_[i];
      const std::size_t off = i == 0 ? send_off_ : 0;
      iov[i].iov_base = const_cast<std::uint8_t*>(b.data()) + off;
      iov[i].iov_len = b.size() - off;
      total += iov[i].iov_len;
    }
    const std::size_t write_cap =
        hooks != nullptr ? hooks->max_write_bytes.load(std::memory_order_relaxed)
                         : 0;
    ssize_t written;
    if (write_cap > 0) {
      // Clamped partial write: at most `write_cap` bytes of the front
      // buffer go out, tearing frames across syscalls.
      const std::size_t n = std::min(write_cap, iov[0].iov_len);
      written = ::send(fd_, iov[0].iov_base, n, MSG_NOSIGNAL);
    } else {
      // sendmsg, not writev: the gathered write needs MSG_NOSIGNAL too — a
      // kill -9'd peer must surface as EPIPE here, not as a SIGPIPE that
      // silently takes down the whole node (the read side racing to notice
      // the EOF first is what made this *intermittent*).
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = n_bufs;
      written = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
    }
    ++syscalls_write_;
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full: stay armed, the EPOLLOUT edge resumes us.
        flush_armed_ = true;
        return;
      }
      fail("tcp link: write failed");
      return;
    }
    bytes_out_ += static_cast<std::uint64_t>(written);
    std::size_t left = static_cast<std::size_t>(written);
    std::size_t completed = 0;
    while (left > 0 && !sendq_.empty()) {
      Buffer& front = sendq_.front();
      const std::size_t remaining = front.size() - send_off_;
      if (left < remaining) {
        send_off_ += left;
        left = 0;
        break;
      }
      left -= remaining;
      send_off_ = 0;
      ++completed;
      if (free_bufs_.size() < kMaxFreeBufs)
        free_bufs_.push_back(std::move(front));
      sendq_.pop_front();
    }
    frames_sent_ += completed;
    if (completed >= 2) frames_coalesced_ += completed;
    if (static_cast<std::size_t>(written) < total) {
      if (write_cap > 0) continue;  // clamp, not a full buffer: keep going
      // Short write: the kernel buffer is full even though writev did not
      // say EAGAIN outright; wait for the EPOLLOUT edge.
      flush_armed_ = true;
      return;
    }
  }
  flush_armed_ = false;
}

void TcpLinkTransport::on_ready(std::uint32_t events) {
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) drain_input();
  if ((events & EPOLLOUT) != 0) flush();
}

void TcpLinkTransport::drain_input() {
  // Loop thread only. Edge-triggered: read until EAGAIN (or EOF/error).
  while (true) {
    if (FaultHooks* hooks = faults()) {
      const int left = hooks->fail_reads_after.load(std::memory_order_relaxed);
      if (left == 0) {
        fail("tcp link: injected read failure");
        return;
      }
      if (left > 0)
        hooks->fail_reads_after.store(left - 1, std::memory_order_relaxed);
    }
    const std::size_t old_size = inbuf_.size();
    inbuf_.resize(old_size + kReadChunk);
    const ssize_t n = ::read(fd_, inbuf_.data() + old_size, kReadChunk);
    ++syscalls_read_;
    if (n < 0) {
      inbuf_.resize(old_size);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      fail("tcp link: read failed");
      return;
    }
    if (n == 0) {
      inbuf_.resize(old_size);
      peer_closed_ = true;
      if (handshake_fn_) fail("tcp link: peer closed during the handshake");
      return;
    }
    inbuf_.resize(old_size + static_cast<std::size_t>(n));
    bytes_in_ += static_cast<std::uint64_t>(n);
    last_rx_ns_ = steady_ns();
    if (!parse_frames()) return;
  }
}

bool TcpLinkTransport::parse_frames() {
  while (inbuf_.size() - in_off_ >= 4) {
    const std::uint8_t* p = inbuf_.data() + in_off_;
    std::uint32_t body_len = 0;
    for (int i = 0; i < 4; ++i)
      body_len |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    if (body_len > wire::kMaxBodyBytes) {
      fail("tcp link: oversized frame");
      return false;
    }
    const std::size_t frame_len = std::size_t{4} + body_len;
    if (inbuf_.size() - in_off_ < frame_len) break;

    wire::DecodeResult res = wire::decode(p, frame_len);
    if (!res.ok()) {
      fail(res.error);
      return false;
    }
    in_off_ += res.consumed;
    if (handshake_fn_) {
      // The link's opening frame. Its callback points frame_fn_ at the
      // link's owner, or closes the stream.
      auto* ctrl = dynamic_cast<wire::ControlMsg*>(res.msg.get());
      if (ctrl == nullptr) {
        fail("tcp link: handshake frame is not a control message");
        return false;
      }
      std::exchange(handshake_fn_, nullptr)(nullptr, *ctrl);
    } else {
      auto* frame = dynamic_cast<TransportFrame*>(res.msg.get());
      if (frame == nullptr) {
        fail("tcp link: stream message is not a transport frame");
        return false;
      }
      res.msg.release();
      frame_fn_(std::unique_ptr<TransportFrame>(frame));
    }
    if (closed_) return false;  // a callback closed the stream
  }
  if (in_off_ == inbuf_.size()) {
    inbuf_.clear();
    in_off_ = 0;
  } else if (in_off_ >= kReadChunk) {
    inbuf_.erase(inbuf_.begin(),
                 inbuf_.begin() + static_cast<std::ptrdiff_t>(in_off_));
    in_off_ = 0;
  }
  return true;
}

}  // namespace cim::net
