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
// until an fd edge, the earliest timer, or a foreign post.
//
// Threading and lifetime:
//  * add() may be called from any thread before or after the loop starts.
//  * remove() only unregisters the fd (no further dispatch will *start*);
//    a dispatch already running on the loop thread may still be inside the
//    handler when remove() returns. Handlers must therefore be destroyed
//    only after run() has returned — the teardown order every embedder
//    follows (stop the loop, wait for run() to return, then destroy
//    transports).
//  * post()/post_after() hand a task to the loop thread; tasks run in post
//    order. Only a post from another thread writes the eventfd: the loop
//    thread's own posts run before it next blocks.
//  * set_work() must be called before run().
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
#include <mutex>
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

  /// Unregister `fd`. Safe from any thread; see the lifetime contract above.
  void remove(int fd);

  /// Run the loop on the calling thread until stop().
  void run();

  /// Ask run() to return: it finishes the current iteration, drains the
  /// queued tasks, then returns. Any thread, idempotent, and sticky: after
  /// a stop() that precedes it, run() returns after one iteration. It does
  /// not wait for run() to return; an embedder running the loop on a thread
  /// of its own joins that thread before destroying any handler.
  void stop();

  /// Run `fn` on the loop thread (FIFO with other posted tasks).
  void post(std::function<void()> fn);

  /// Embedder work run once per iteration, after fd dispatch; returns
  /// whether more work is runnable right now (the loop then polls instead
  /// of sleeping). A mesh node runs one bounded simulator batch here.
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

  bool on_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_id_.load(
        std::memory_order_acquire);
  }

  // ---- syscall accounting ----------------------------------------------------
  std::uint64_t epoll_waits() const {
    return epoll_waits_.load(std::memory_order_relaxed);
  }
  std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
  /// Force one loop iteration from another thread (a no-op on the loop
  /// thread, which iterates anyway before it blocks).
  void wake();
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

  std::mutex mutex_;  // guards handlers_, tasks_, and timers_
  std::unordered_map<int, FdHandler*> handlers_;
  std::vector<std::function<void()>> tasks_;
  std::vector<std::function<void()>> running_tasks_;  // loop thread only
  std::function<bool()> work_;
  std::multimap<std::int64_t, std::function<void()>> timers_;  // deadline ns

  std::atomic<std::uint64_t> epoll_waits_{0};
  std::atomic<std::uint64_t> wakeups_{0};
};

}  // namespace cim::net
