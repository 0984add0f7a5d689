#include "net/epoll_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "net/fault_inject.h"

namespace cim::net {

EpollLoop::EpollLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  CIM_CHECK_MSG(epoll_fd_ >= 0,
                "epoll_create1 failed: " << std::strerror(errno));
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  CIM_CHECK_MSG(wake_fd_ >= 0, "eventfd failed: " << std::strerror(errno));
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: drained explicitly each wakeup
  ev.data.fd = wake_fd_;
  CIM_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
}

EpollLoop::~EpollLoop() {
  stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EpollLoop::add(int fd, FdHandler* handler) {
  CIM_CHECK(fd >= 0 && handler != nullptr);
  CIM_DCHECK_MSG(owned_by_caller(), "add() off the loop thread");
  const bool inserted = handlers_.emplace(fd, handler).second;
  CIM_CHECK_MSG(inserted, "fd registered twice with the epoll loop");
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
  ev.data.fd = fd;
  CIM_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
                "epoll_ctl(ADD) failed: " << std::strerror(errno));
}

void EpollLoop::remove(int fd) {
  CIM_DCHECK_MSG(owned_by_caller(), "remove() off the loop thread");
  handlers_.erase(fd);
  // The fd may already be closed by the transport's error path; a failed DEL
  // is then expected and harmless (the map erase above is what gates
  // dispatch).
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EpollLoop::stop() {
  stop_flag_.store(true, std::memory_order_release);
  // The loop thread checks the flag before it next blocks; any other thread
  // may find it asleep in epoll_wait.
  if (loop_thread_id_.load(std::memory_order_acquire) ==
      std::this_thread::get_id())
    return;
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  wakeups_.fetch_add(1, std::memory_order_relaxed);
}

void EpollLoop::post(std::function<void()> fn) {
  CIM_DCHECK_MSG(owned_by_caller(), "post() off the loop thread");
  tasks_.push_back(std::move(fn));
}

void EpollLoop::post_after(int delay_ms, std::function<void()> fn) {
  CIM_DCHECK_MSG(owned_by_caller(), "post_after() off the loop thread");
  timers_.emplace(steady_ns() + std::int64_t{delay_ms} * 1'000'000,
                  std::move(fn));
}

void EpollLoop::drain_wake_fd() {
  std::uint64_t buf;
  while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
  }
}

void EpollLoop::run_tasks() {
  // Swap into a vector that keeps its capacity: an iteration's flush tasks
  // cost no allocation. Tasks posted meanwhile wait in tasks_.
  running_tasks_.swap(tasks_);
  for (auto& fn : running_tasks_) fn();
  running_tasks_.clear();
}

void EpollLoop::run_due_timers() {
  // Pop everything due, then run it: a timer may re-arm itself, and that
  // timer waits for the next iteration.
  std::vector<std::function<void()>> due;
  const std::int64_t now = steady_ns();
  auto it = timers_.begin();
  while (it != timers_.end() && it->first <= now) {
    due.push_back(std::move(it->second));
    it = timers_.erase(it);
  }
  for (auto& fn : due) fn();
}

int EpollLoop::next_timeout_ms(bool busy) {
  if (busy || !tasks_.empty()) return 0;
  if (timers_.empty()) return -1;
  const std::int64_t delta_ns = timers_.begin()->first - steady_ns();
  if (delta_ns <= 0) return 0;
  // Round up so a timer never fires early and re-sleeps in a tight loop.
  return static_cast<int>((delta_ns + 999'999) / 1'000'000);
}

void EpollLoop::run() {
  loop_thread_id_.store(std::this_thread::get_id(), std::memory_order_release);
  epoll_event events[64];
  // The work reported more runnable work. A run starts busy: its work has
  // not reported yet, and a sleep before the first batch would wait for a
  // timer or an fd edge the work may not need.
  bool busy = true;
  while (true) {
    const int n =
        ::epoll_wait(epoll_fd_, events, 64, next_timeout_ms(busy));
    if (n < 0) {
      if (errno == EINTR) continue;
      CIM_CHECK_MSG(false, "epoll_wait failed: " << std::strerror(errno));
    }
    ++epoll_waits_;
    if (fault_hooks_ != nullptr) {
      const int delay_us =
          fault_hooks_->dispatch_delay_us.load(std::memory_order_relaxed);
      if (delay_us > 0) ::usleep(static_cast<useconds_t>(delay_us));
    }
    // Tasks first: a remove() posted from the loop thread itself must take
    // effect before any event of the same batch dispatches to the handler.
    run_tasks();
    run_due_timers();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        drain_wake_fd();
        continue;
      }
      auto it = handlers_.find(fd);
      if (it != handlers_.end()) it->second->on_ready(events[i].events);
    }
    busy = work_ && work_();
    // Tasks queued by this iteration, deferred flushes above all.
    run_tasks();
    // The stop is consumed here, so the loop can run again; a stop() that
    // lands after this exchange stops the next run().
    if (stop_flag_.exchange(false, std::memory_order_acq_rel)) {
      run_tasks();
      break;
    }
  }
  loop_thread_id_.store(std::thread::id{}, std::memory_order_release);
}

}  // namespace cim::net
