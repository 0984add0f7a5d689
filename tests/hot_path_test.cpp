// Unit tests: the allocation-free hot-path primitives — SmallFn, VecQueue,
// BlockPool, and VarStore (docs/ARCHITECTURE.md, "Allocation-free event
// core"). tests/alloc_test.cpp checks the end-to-end invariant; these pin
// the building blocks' semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/small_fn.h"
#include "common/value.h"
#include "common/var_store.h"
#include "common/vec_queue.h"

namespace cim {
namespace {

// --- SmallFn ---------------------------------------------------------------

TEST(SmallFn, DefaultIsEmpty) {
  SmallFn<void()> fn;
  EXPECT_FALSE(fn);
  EXPECT_TRUE(fn == nullptr);
  SmallFn<void()> null_fn = nullptr;
  EXPECT_FALSE(null_fn);
}

TEST(SmallFn, InlineLambdaInvokes) {
  int hits = 0;
  SmallFn<void()> fn = [&hits] { ++hits; };
  ASSERT_TRUE(fn);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, ArgumentsAndReturnValue) {
  SmallFn<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(SmallFn, MoveOnlyCaptureIsAccepted) {
  // std::function would reject this capture (not copyable); the event core
  // relies on moving MessagePtr-style captures straight into the slot.
  auto p = std::make_unique<int>(41);
  SmallFn<int()> fn = [p = std::move(p)] { return *p + 1; };
  EXPECT_EQ(fn(), 42);
}

TEST(SmallFn, MoveTransfersTargetAndEmptiesSource) {
  int hits = 0;
  SmallFn<void()> a = [&hits] { ++hits; };
  SmallFn<void()> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): documented semantics
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);

  SmallFn<void()> c;
  c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, TrivialCaptureSurvivesMove) {
  // Trivially-copyable closures take the handler-less memcpy path; the
  // capture must arrive intact.
  std::int64_t big = 0x1122334455667788;
  int small = 7;
  SmallFn<std::int64_t()> fn = [big, small] { return big + small; };
  SmallFn<std::int64_t()> moved = std::move(fn);
  EXPECT_EQ(moved(), 0x1122334455667788 + 7);
}

TEST(SmallFn, OversizeCaptureSpillsToPoolAndWorks) {
  // 128 bytes of capture cannot fit the 64-byte inline buffer.
  struct Big {
    std::int64_t vals[16];
  };
  Big big{};
  for (int i = 0; i < 16; ++i) big.vals[i] = i;
  SmallFn<std::int64_t()> fn = [big] {
    std::int64_t sum = 0;
    for (std::int64_t v : big.vals) sum += v;
    return sum;
  };
  EXPECT_EQ(fn(), 120);
  SmallFn<std::int64_t()> moved = std::move(fn);
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved(), 120);
}

TEST(SmallFn, DestroysCaptureExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    SmallFn<void()> fn = [counter] {};
    EXPECT_EQ(counter.use_count(), 2);
    SmallFn<void()> moved = std::move(fn);
    EXPECT_EQ(counter.use_count(), 2);  // moved, not copied
  }
  EXPECT_EQ(counter.use_count(), 1);  // destroyed with the SmallFn
}

TEST(SmallFn, ReassignmentReplacesTarget) {
  auto old_capture = std::make_shared<int>(0);
  SmallFn<int()> fn = [old_capture] { return 1; };
  fn = [] { return 2; };
  EXPECT_EQ(old_capture.use_count(), 1);  // old target destroyed
  EXPECT_EQ(fn(), 2);
  fn = nullptr;
  EXPECT_FALSE(fn);
}

// --- VecQueue --------------------------------------------------------------

TEST(VecQueue, FifoMatchesDequeUnderRandomChurn) {
  // The header comment promises "FIFO order identical to std::deque's";
  // exercise mixed push/pop (including full drains, which reset the head,
  // and long-lived queues, which compact).
  Rng rng(7);
  VecQueue<int> q;
  std::deque<int> ref;
  int next = 0;
  for (int round = 0; round < 5000; ++round) {
    if (ref.empty() || rng.chance(0.55)) {
      q.push_back(next);
      ref.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(q.front(), ref.front());
      ASSERT_EQ(q.back(), ref.back());
      q.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
  }
  while (!ref.empty()) {
    ASSERT_EQ(q.front(), ref.front());
    q.pop_front();
    ref.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(VecQueue, CompactionPreservesOrder) {
  // Keep the queue non-empty while popping far past kCompactAt so the
  // dead-prefix compaction triggers; order must be unaffected.
  VecQueue<int> q;
  for (int i = 0; i < 300; ++i) q.push_back(i);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(q.front(), i);
    q.pop_front();
  }
  for (int i = 300; i < 350; ++i) q.push_back(i);
  for (int i = 200; i < 350; ++i) {
    ASSERT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(VecQueue, IterationCoversLiveRange) {
  VecQueue<int> q;
  for (int i = 0; i < 8; ++i) q.push_back(i);
  q.pop_front();
  q.pop_front();
  std::vector<int> seen(q.begin(), q.end());
  EXPECT_EQ(seen, (std::vector<int>{2, 3, 4, 5, 6, 7}));
}

TEST(VecQueue, ClearEmptiesTheQueue) {
  VecQueue<int> q;
  q.push_back(1);
  q.push_back(2);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push_back(3);
  EXPECT_EQ(q.front(), 3);
}

TEST(VecQueue, MoveOnlyElements) {
  VecQueue<std::unique_ptr<int>> q;
  q.push_back(std::make_unique<int>(5));
  q.push_back(std::make_unique<int>(6));
  EXPECT_EQ(*q.front(), 5);
  auto p = std::move(q.front());
  q.pop_front();
  EXPECT_EQ(*p, 5);
  EXPECT_EQ(*q.front(), 6);
}

// --- BlockPool -------------------------------------------------------------

TEST(BlockPool, RoundTripReturnsUsableAlignedBlocks) {
  for (std::size_t bytes : {1u, 64u, 65u, 256u, 1024u}) {
    void* p = BlockPool::allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                  alignof(std::max_align_t),
              0u);
    std::memset(p, 0xAB, bytes);  // must own the whole payload
    BlockPool::deallocate(p);
  }
}

TEST(BlockPool, OversizeFallsThroughToHeap) {
  void* p = BlockPool::allocate(64 * 1024);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xCD, 64 * 1024);
  BlockPool::deallocate(p);
}

TEST(BlockPool, NullDeallocateIsNoop) { BlockPool::deallocate(nullptr); }

TEST(BlockPool, SteadyStateReusesBlocks) {
#if defined(CIM_SANITIZE)
  GTEST_SKIP() << "pool passes through to the heap under sanitizers";
#else
  // Warm one class, then round-trip: every allocate must be a pool hit.
  void* warm = BlockPool::allocate(128);
  BlockPool::deallocate(warm);
  const std::uint64_t misses_before = BlockPool::misses();
  for (int i = 0; i < 100; ++i) {
    void* p = BlockPool::allocate(128);
    EXPECT_EQ(p, warm);  // same block recycled every time
    BlockPool::deallocate(p);
  }
  EXPECT_EQ(BlockPool::misses(), misses_before);
#endif
}

TEST(BlockPool, TrimReleasesThisThreadsCache) {
#if defined(CIM_SANITIZE)
  GTEST_SKIP() << "pool passes through to the heap under sanitizers";
#else
  void* a = BlockPool::allocate(64);
  void* b = BlockPool::allocate(512);
  BlockPool::deallocate(a);
  BlockPool::deallocate(b);
  EXPECT_GE(BlockPool::cached_blocks(), 2u);
  BlockPool::trim();
  EXPECT_EQ(BlockPool::cached_blocks(), 0u);
#endif
}

// --- VarStore --------------------------------------------------------------

TEST(VarStore, UnwrittenVariablesReadInitValue) {
  VarStore store;
  for (const VarId var : {VarId{0}, VarId{999}, VarId{100000}}) {
    EXPECT_EQ(store.get(var).value, kInitValue);  // sparse range too
    EXPECT_FALSE(store.get(var).wid.valid());
  }
}

TEST(VarStore, SetGetRoundTripDenseRange) {
  VarStore store;
  const ProcId p{SystemId{0}, 1};
  store.set(VarId{0}, 10, WriteId::make(p, 1));
  store.set(VarId{7}, 17, WriteId::make(p, 2));
  store.set(VarId{700}, 27, WriteId::make(p, 3));  // forces geometric growth
  EXPECT_EQ(store.get(VarId{0}).value, 10);
  EXPECT_EQ(store.get(VarId{7}).value, 17);
  EXPECT_EQ(store.get(VarId{700}).value, 27);
  EXPECT_EQ(store.get(VarId{700}).wid, WriteId::make(p, 3));
  EXPECT_EQ(store.get(VarId{3}).value, kInitValue);  // grown slots stay initial
  EXPECT_FALSE(store.get(VarId{3}).wid.valid());
  store.set(VarId{7}, 99, WriteId::make(p, 4));
  EXPECT_EQ(store.get(VarId{7}).value, 99);
  EXPECT_EQ(store.get(VarId{7}).wid, WriteId::make(p, 4));
}

TEST(VarStore, SparseIdsSpillToTheMap) {
  VarStore store;
  const ProcId p{SystemId{1}, 0};
  store.set(VarId{1 << 20}, 5, WriteId::make(p, 5));
  store.set(VarId{0xFFFFFFFF}, 6, WriteId::make(p, 6));
  EXPECT_EQ(store.get(VarId{1 << 20}).value, 5);
  EXPECT_EQ(store.get(VarId{1 << 20}).wid, WriteId::make(p, 5));
  EXPECT_EQ(store.get(VarId{0xFFFFFFFF}).value, 6);
  // Dense and sparse ranges do not alias.
  store.set(VarId{1}, 7, WriteId::make(p, 7));
  EXPECT_EQ(store.get(VarId{1}).value, 7);
  EXPECT_EQ(store.get(VarId{1 << 20}).value, 5);
}

}  // namespace
}  // namespace cim
