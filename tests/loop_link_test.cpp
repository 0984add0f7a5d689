// A mesh node's single-thread objects on their own (src/net/epoll_loop.h,
// src/net/tcp_link.h): the loop's task, timer, work, ownership and stop
// contracts, and a pair of TcpLinkTransports over one connected stream
// socket pair, both driven by one loop. Every loop here has a guard timer,
// so a broken contract fails the test instead of hanging it.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/epoll_loop.h"
#include "net/tcp_link.h"
#include "net/wire.h"

namespace cim {
namespace {

constexpr int kGuardMs = 10'000;

// Arm a timer that stops `loop` and records that it had to.
void arm_guard(net::EpollLoop& loop, bool& timed_out) {
  loop.post_after(kGuardMs, [&loop, &timed_out] {
    timed_out = true;
    loop.stop();
  });
}

// ---- EpollLoop -------------------------------------------------------------

TEST(EpollLoop, TasksPostedBeforeRunRunFirstInPostOrder) {
  net::EpollLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) loop.post([&order, i] { order.push_back(i); });
  loop.post([&] {
    // A task posted by a task runs in the same run, after the earlier ones.
    loop.post([&] {
      order.push_back(3);
      loop.stop();
    });
  });
  bool timed_out = false;
  arm_guard(loop, timed_out);
  loop.run();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EpollLoop, TimersRunInDeadlineOrderAndPendingOnesNeverRun) {
  net::EpollLoop loop;
  std::vector<int> order;
  bool late_ran = false;
  loop.post_after(30, [&] { order.push_back(2); });
  loop.post_after(10, [&] { order.push_back(1); });
  loop.post_after(50, [&] {
    order.push_back(3);
    loop.stop();
  });
  loop.post_after(60'000, [&] { late_ran = true; });
  bool timed_out = false;
  arm_guard(loop, timed_out);
  loop.run();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(late_ran);  // still pending at stop(): discarded
}

TEST(EpollLoop, WorkRunsEveryIterationWhileItReportsMore) {
  // Work that reports more runnable work keeps the loop polling: with no fd,
  // task or due timer, a loop that slept instead would wait for the guard.
  // The work first runs in the first iteration, which a queued task starts
  // at once.
  net::EpollLoop loop;
  loop.post([] {});
  int batches = 0;
  loop.set_work([&] {
    if (++batches == 5) {
      loop.stop();
      return false;
    }
    return true;
  });
  bool timed_out = false;
  arm_guard(loop, timed_out);
  loop.run();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(batches, 5);
  EXPECT_EQ(loop.wakeups(), 0u);  // stop() on the loop thread needs no wake
}

TEST(EpollLoop, WorkRunsInTheFirstIterationWithoutWaiting) {
  // No task, no fd edge and no due timer: a run's first iteration still
  // runs the work at once instead of sleeping until the next timer (here
  // the guard). A mesh node's run() starts its engine this way, once
  // join() has consumed every socket's edges.
  net::EpollLoop loop;
  int batches = 0;
  loop.set_work([&] {
    ++batches;
    loop.stop();
    return false;
  });
  bool timed_out = false;
  arm_guard(loop, timed_out);
  loop.run();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(batches, 1);
}

TEST(EpollLoop, StopBeforeRunIsSticky) {
  // run() after a stop() runs one iteration — the queued tasks included —
  // and returns.
  net::EpollLoop loop;
  bool ran = false;
  loop.post([&] { ran = true; });
  loop.stop();
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EpollLoop, RunsAgainWithWhatTheLastRunLeftPending) {
  // A stop() ends one run(), not the loop: the next run() does not see it,
  // and runs the timers and tasks the last one left pending.
  net::EpollLoop loop;
  bool late_ran = false;
  loop.post_after(20, [&] {
    late_ran = true;
    loop.stop();
  });
  loop.stop();
  loop.run();
  EXPECT_FALSE(late_ran);
  bool task_ran = false;
  loop.post([&] { task_ran = true; });
  bool timed_out = false;
  arm_guard(loop, timed_out);
  loop.run();
  EXPECT_FALSE(timed_out);
  EXPECT_TRUE(task_ran);
  EXPECT_TRUE(late_ran);
}

TEST(EpollLoop, StopFromAnotherThreadWakesASleepingLoop) {
  net::EpollLoop loop;
  std::atomic<bool> started{false};
  bool timed_out = false;
  loop.post([&] { started.store(true); });
  arm_guard(loop, timed_out);
  std::thread runner([&] { loop.run(); });
  while (!started.load()) std::this_thread::yield();
  // The loop has nothing left to do before the guard: it sleeps in
  // epoll_wait, and only the eventfd write can end that sleep early.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  loop.stop();
  runner.join();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(loop.wakeups(), 1u);
}

TEST(EpollLoop, OnlyTheLoopThreadOwnsARunningLoop) {
  net::EpollLoop loop;
  EXPECT_TRUE(loop.owned_by_caller());  // not running: anyone may set it up
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  bool owned_in_task = false;
  bool timed_out = false;
  loop.post([&] {
    owned_in_task = loop.owned_by_caller();
    started.store(true);
  });
  // The loop polls until `release`, so its thread id stays published.
  loop.set_work([&] {
    if (release.load()) loop.stop();
    return true;
  });
  arm_guard(loop, timed_out);
  std::thread runner([&] { loop.run(); });
  while (!started.load()) std::this_thread::yield();
  const bool owned_elsewhere = loop.owned_by_caller();
  release.store(true);
  runner.join();
  EXPECT_FALSE(timed_out);
  EXPECT_TRUE(owned_in_task);
  EXPECT_FALSE(owned_elsewhere);
  EXPECT_TRUE(loop.owned_by_caller());  // run() returned: the caller's again
}

// ---- TcpLinkTransport over one socket pair ---------------------------------

std::vector<std::uint8_t> encode_frame(std::uint64_t seq) {
  net::TransportFrame f;
  f.seq = seq;
  f.ack = 0;
  auto pay = std::make_unique<net::wire::ControlMsg>();
  pay->code = net::wire::ControlMsg::kDone;
  pay->a = seq;
  f.payload = std::move(pay);
  std::vector<std::uint8_t> buf;
  net::wire::encode(f, buf);
  return buf;
}

// The transport moves bytes over any connected stream socket; a Unix socket
// pair needs no port.
struct LinkPair {
  LinkPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = std::make_unique<net::TcpLinkTransport>(fds[0], loop);
    b = std::make_unique<net::TcpLinkTransport>(fds[1], loop);
  }
  // Transports go before the loop they are registered with.
  net::EpollLoop loop;
  std::unique_ptr<net::TcpLinkTransport> a;
  std::unique_ptr<net::TcpLinkTransport> b;
};

TEST(TcpLink, FramesQueuedBeforeRunArriveInOrderInCoalescedWrites) {
  // The send queue is unbounded and fillable before run(); the first frame's
  // flush task carries the whole burst out in writev batches.
  constexpr std::uint64_t kFrames = 2000;
  LinkPair p;
  std::vector<std::uint64_t> got;
  p.a->start_frames([](std::unique_ptr<net::TransportFrame>) {});
  p.b->start_frames([&](std::unique_ptr<net::TransportFrame> f) {
    got.push_back(f->seq);
    if (got.size() == kFrames) p.loop.stop();
  });
  std::uint64_t bytes = 0;
  for (std::uint64_t s = 0; s < kFrames; ++s) {
    const auto buf = encode_frame(s);
    bytes += buf.size();
    ASSERT_TRUE(p.a->send_bytes(buf.data(), buf.size()));
  }
  EXPECT_EQ(p.a->backlog(), kFrames);
  bool timed_out = false;
  arm_guard(p.loop, timed_out);
  p.loop.run();
  EXPECT_FALSE(timed_out);

  ASSERT_EQ(got.size(), kFrames);
  for (std::uint64_t s = 0; s < kFrames; ++s) ASSERT_EQ(got[s], s);
  EXPECT_EQ(p.a->backlog(), 0u);
  EXPECT_EQ(p.a->frames_sent(), kFrames);
  EXPECT_EQ(p.a->wire_bytes_out(), bytes);
  EXPECT_EQ(p.b->wire_bytes_in(), bytes);
  EXPECT_GE(p.a->frames_coalesced(), kFrames / 2);
  EXPECT_LT(p.a->syscalls_write(), kFrames / 8);
  EXPECT_EQ(p.a->error(), nullptr);
  EXPECT_EQ(p.b->error(), nullptr);
}

TEST(TcpLink, QueuedFramesLeaveBeforeACloseAndLaterSendsDrop) {
  // close() posted after a burst runs after the burst's flush task (tasks
  // run in post order): the peer reads every frame, then a clean EOF.
  constexpr std::uint64_t kFrames = 3;
  LinkPair p;
  std::vector<std::uint64_t> got;
  p.a->start_frames([](std::unique_ptr<net::TransportFrame>) {});
  p.b->start_frames([&](std::unique_ptr<net::TransportFrame> f) {
    got.push_back(f->seq);
  });
  for (std::uint64_t s = 0; s < kFrames; ++s) {
    const auto buf = encode_frame(s);
    ASSERT_TRUE(p.a->send_bytes(buf.data(), buf.size()));
  }
  p.loop.post([&] { p.a->close(); });
  p.loop.set_work([&] {
    if (p.b->peer_closed()) p.loop.stop();
    return false;
  });
  bool timed_out = false;
  arm_guard(p.loop, timed_out);
  p.loop.run();
  EXPECT_FALSE(timed_out);

  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_TRUE(p.b->peer_closed());
  EXPECT_EQ(p.b->error(), nullptr);  // EOF is not a stream failure
  EXPECT_TRUE(p.a->peer_closed());
  const auto buf = encode_frame(kFrames);
  EXPECT_FALSE(p.a->send_bytes(buf.data(), buf.size()));
  EXPECT_EQ(p.a->frames_sent(), kFrames);
}

}  // namespace
}  // namespace cim
