// Epoll reactor for the multi-link TCP mesh (tools/cim_bridge, docs/BRIDGE.md).
//
// One EpollLoop per OS process drives every socket of that process's mesh
// node, and the node's protocol engine, from a single thread — whichever
// calls run() (a mesh node runs it on MeshNode::run()'s caller):
// edge-triggered readiness (EPOLLIN | EPOLLOUT | EPOLLET), a task queue, a
// timer queue, and one optional batch of embedder work per iteration. A mesh
// node installs its simulator there (set_work): each iteration dispatches the
// ready sockets, runs one bounded batch of engine events, then runs the tasks
// that batch queued — above all the transports' deferred flushes, so a
// whole batch of frames to one peer leaves in one writev (net/tcp_link.h).
//
// Contract (edge-triggered): a handler's on_ready() must drain the fd until
// EAGAIN — the loop will not re-report a level, only a new edge.
//
// Iteration order: epoll_wait, due tasks, due timers, fd dispatch, the work
// batch, then the tasks queued so far. epoll_wait returns at once while the
// work reports more runnable work or tasks are queued; otherwise it sleeps
// until an fd edge, the earliest timer, or stop().
//
// Threading and lifetime: a single-thread object with no lock.
//  * add(), remove(), post(), post_after() and set_work() run on the loop's
//    thread, or while the loop is not running (before run(), after it
//    returned); owned_by_caller() is the debug check of that contract. A
//    task posted before run() runs in its first iteration.
//  * stop() is the one call any thread may make: an atomic flag plus an
//    eventfd write that wakes a sleeping epoll_wait.
//  * remove() only unregisters the fd (no further dispatch will *start*);
//    the handler may still be on the stack when remove() returns. Handlers
//    must therefore be destroyed only after run() has returned — the
//    teardown order every embedder follows (stop the loop, wait for run()
//    to return, then destroy transports).
//  * Tasks run in post order.
//
// Syscall accounting: the loop counts epoll_wait returns and eventfd
// wakeups; transports count their read/writev calls. tools/cim_bridge folds
// both into the net.mesh.* counters (docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cim::net {

struct FaultHooks;

/// Steady-clock nanoseconds: the clock of the loop's timers, and the one the
/// transports and sessions stamp receive times and heartbeats with.
inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class EpollLoop {
 public:
  /// Readiness callback target. `events` is the epoll bit set (EPOLLIN,
  /// EPOLLOUT, EPOLLERR, EPOLLHUP).
  class FdHandler {
   public:
    virtual ~FdHandler() = default;
    virtual void on_ready(std::uint32_t events) = 0;
  };

  EpollLoop();
  ~EpollLoop();
  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  /// Register `fd` edge-triggered for read+write readiness. The handler is
  /// borrowed and must stay valid until run() has returned (see header).
  void add(int fd, FdHandler* handler);

  /// Unregister `fd`; see the lifetime contract above.
  void remove(int fd);

  /// Run the loop on the calling thread until stop().
  void run();

  /// Ask run() to return: it finishes the current iteration, drains the
  /// queued tasks, then returns. Any thread, idempotent, and sticky: after
  /// a stop() that precedes it, run() returns after one iteration. It does
  /// not wait for run() to return; an embedder running the loop on a thread
  /// of its own joins that thread before destroying any handler.
  void stop();

  /// Run `fn` at the end of the current iteration (FIFO with other posted
  /// tasks).
  void post(std::function<void()> fn);

  /// Embedder work run once per iteration, after fd dispatch; returns
  /// whether more work is runnable right now (the loop then polls instead
  /// of sleeping). A mesh node runs one bounded simulator batch here;
  /// bench_bridge's node 0 runs one batch of its flood.
  void set_work(std::function<bool()> fn) { work_ = std::move(fn); }

  /// Run `fn` on the loop thread once, roughly `delay_ms` from now. This is
  /// what drives the session layer's heartbeats and liveness checks
  /// (mesh::LinkSession): the loop computes its epoll_wait timeout from the
  /// earliest pending timer. Timers that are still pending when the loop
  /// stops are discarded, never run.
  void post_after(int delay_ms, std::function<void()> fn);

  /// Deterministic fault injection (tests/chaos bench; docs/FAULTS.md).
  /// Borrowed; set before the loop starts, null = off.
  void set_fault_hooks(const FaultHooks* hooks) { fault_hooks_ = hooks; }

  /// The caller may touch the loop's state: it is the loop's thread, or the
  /// loop is not running.
  bool owned_by_caller() const {
    const std::thread::id t = loop_thread_id_.load(std::memory_order_acquire);
    return t == std::thread::id{} || t == std::this_thread::get_id();
  }

  // ---- syscall accounting (loop thread, or after run() returned) ------------
  std::uint64_t epoll_waits() const { return epoll_waits_; }
  /// eventfd writes: stop() calls from a thread other than the loop's.
  std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
  void drain_wake_fd();
  void run_tasks();
  void run_due_timers();
  /// epoll_wait timeout: 0 while `busy` or tasks are queued, else until
  /// the earliest timer (-1: none).
  int next_timeout_ms(bool busy);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  std::atomic<std::thread::id> loop_thread_id_{};
  std::atomic<bool> stop_flag_{false};
  const FaultHooks* fault_hooks_ = nullptr;

  std::unordered_map<int, FdHandler*> handlers_;
  std::vector<std::function<void()>> tasks_;
  std::vector<std::function<void()>> running_tasks_;
  std::function<bool()> work_;
  std::multimap<std::int64_t, std::function<void()>> timers_;  // deadline ns

  std::uint64_t epoll_waits_ = 0;
  std::atomic<std::uint64_t> wakeups_{0};
};

}  // namespace cim::net
