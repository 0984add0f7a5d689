// Deterministic socket-level fault injection for the mesh chaos tests
// (docs/FAULTS.md "Socket-level chaos"). A FaultHooks instance is shared
// between test code and the transport/loop it torments; every field is an
// atomic so a test (or the chaos bench) can flip faults while the loop
// thread is running. The hooks live *inside* the I/O paths — the injected
// failures are indistinguishable from the real thing (a reset peer, a full
// kernel buffer, a stalled reactor) to everything above the syscall layer,
// which is what makes them a fair test of the session/reconnect machinery.
//
// All faults default to off. Countdown fields count syscalls: a value of N
// lets N calls through and fails the next one; -1 disables the hook.
#pragma once

#include <atomic>
#include <cstddef>

namespace cim::net {

struct FaultHooks {
  /// Clamp every send syscall to at most this many bytes, forcing partial
  /// writes and torn frames on the stream. 0 = unlimited.
  std::atomic<std::size_t> max_write_bytes{0};

  /// Countdown of write syscalls; at zero the write fails as if the peer
  /// reset the connection. -1 = off.
  std::atomic<int> fail_writes_after{-1};

  /// Countdown of read syscalls; at zero the read fails (connection reset
  /// from the receive side). -1 = off.
  std::atomic<int> fail_reads_after{-1};

  /// While true the transport pretends the kernel buffer is full (EAGAIN):
  /// nothing reaches the wire, queues build, and the session journal fills
  /// until it pauses the engine. Clear it and kick() the transport to
  /// resume (the session's heartbeat tick does).
  std::atomic<bool> stall_writes{false};

  /// Artificial delay injected into every epoll dispatch batch — a stalled
  /// loop thread — in microseconds. 0 = off.
  std::atomic<int> dispatch_delay_us{0};
};

}  // namespace cim::net
