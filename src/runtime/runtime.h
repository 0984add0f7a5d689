// Threaded runtime: a real-threads front end over the same protocol objects.
//
// The protocol code is event-driven and deterministic under the simulator;
// this runtime runs the simulator loop on a dedicated engine thread and lets
// ordinary application threads issue *blocking* read/write calls — the
// paper's "the application process blocks until it receives the
// corresponding response from its MCS-process" — through a thread-safe
// injection queue. Calls are injected as simulator events; responses wake
// the calling thread via promise/future.
//
// This keeps one copy of the protocol logic (no forked thread-safe variant)
// while giving examples and integration tests a genuinely concurrent
// blocking API. It serves blocking clients only (examples/threaded_kv,
// bench_throughput): a mesh node has no blocking callers and runs its
// engine on its EpollLoop thread instead (mesh/mesh_node.h).
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/small_fn.h"
#include "common/vec_queue.h"
#include "interconnect/federation.h"

namespace cim::rt {

class Runtime {
 public:
  /// The runtime drives `federation`'s simulator; nothing else may touch the
  /// federation while the runtime is running.
  explicit Runtime(isc::Federation& federation);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Start the engine thread.
  void start();

  /// Process remaining work and join the engine thread. Idempotent.
  void stop();

  /// Run `fn` on the engine thread (as a simulator event); thread-safe.
  void post(sim::Simulator::Action fn);

  bool running() const;

 private:
  void engine_loop();

  isc::Federation& federation_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  VecQueue<sim::Simulator::Action> injected_;
  // Lock-free mirrors of the queue/stop state, so the idle engine can spin
  // briefly before parking on the condition variable. While it spins, a
  // post() is an atomic flag plus a queue push — no futex wake. Blocking
  // clients post at operation rate, so this halves the syscalls per op.
  std::atomic<bool> has_injected_{false};
  std::atomic<bool> stop_flag_{false};
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread engine_;
};

/// Blocking client bound to one application process. Safe to use from any
/// thread, one outstanding call per client at a time (create one client per
/// application thread, matching the paper's one-process-one-caller model).
class BlockingClient {
 public:
  BlockingClient(Runtime& runtime, mcs::AppProcess& app)
      : runtime_(runtime), app_(app) {}

  /// Issue a read and block until the response arrives.
  Value read(VarId var);

  /// Issue a write and block until it is acknowledged.
  void write(VarId var, Value value);

  ProcId id() const { return app_.id(); }

 private:
  Runtime& runtime_;
  mcs::AppProcess& app_;
};

}  // namespace cim::rt
