// The allocation-free steady-state invariant, enforced end to end.
//
// docs/ARCHITECTURE.md promises that once a federation is warmed up, the
// simulate -> send -> deliver -> apply loop performs zero heap allocations:
// event slots recycle, messages draw from BlockPool, clocks stay inline,
// and the per-replica stores are flat vectors. This file replaces the global
// operator new with a counting hook and runs a two_lans-shaped federation —
// two ANBKH systems over a point-to-point link, uniform workload — asserting
// that a mid-run steady-state window allocates nothing at all.
//
// The hook counts every allocation in the test binary; it is a strict probe
// (any std::function, deque chunk, or map node on the event path fails the
// test), which is exactly the point.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/ids.h"
#include "common/pool.h"
#include "common/small_fn.h"
#include "common/value.h"
#include "common/var_store.h"
#include "common/vector_clock.h"
#include "interconnect/federation.h"
#include "net/delay.h"
#include "protocols/anbkh.h"
#include "sim/time.h"
#include "workload/generator.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cim {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocHook, CountsHeapAllocations) {
  const std::uint64_t before = allocations();
  auto p = std::make_unique<int>(1);
  EXPECT_GT(allocations(), before);
}

TEST(AllocFree, WarmVarStoreDoesNotAllocate) {
  VarStore store;
  const WriteId wid = WriteId::make(ProcId{SystemId{0}, 0}, 1);
  for (std::uint32_t v = 0; v < 64; ++v) store.set(VarId{v}, 1, wid);  // warm-up
  const std::uint64_t before = allocations();
  for (int round = 0; round < 1000; ++round) {
    for (std::uint32_t v = 0; v < 64; ++v) {
      store.set(VarId{v}, round, wid);
      ASSERT_EQ(store.get(VarId{v}).value, round);
    }
  }
  EXPECT_EQ(allocations(), before);
}

TEST(AllocFree, InlineSmallFnDoesNotAllocate) {
  int sink = 0;
  sim::Simulator* null_sim = nullptr;
  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    // A typical event closure: a pointer, two ids, a timestamp.
    SmallFn<void()> fn = [&sink, null_sim, i, t = sim::Time{9}] {
      sink += i + static_cast<int>(t.ns) + (null_sim ? 1 : 0);
    };
    SmallFn<void()> moved = std::move(fn);
    moved();
  }
  EXPECT_EQ(allocations(), before);
  EXPECT_NE(sink, 0);
}

TEST(AllocFree, InlineVectorClockDoesNotAllocate) {
  VectorClock a(VectorClock::kInline);
  VectorClock b(VectorClock::kInline);
  b.tick(3);
  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    VectorClock copy(a);
    copy.merge(b);
    copy.tick(i % VectorClock::kInline);
    a = copy;
  }
  EXPECT_EQ(allocations(), before);
}

// The end-to-end check: a steady-state window of a two_lans-shaped run must
// fire thousands of events without a single heap allocation.
TEST(AllocFree, SteadyStateFederationWindowIsAllocationFree) {
#if defined(CIM_SANITIZE)
  GTEST_SKIP() << "BlockPool passes through to the heap under sanitizers";
#else
  constexpr std::uint16_t kProcs = 4;
  isc::FederationConfig cfg;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sys;
    sys.id = SystemId{s};
    sys.num_app_processes = kProcs;
    sys.protocol = proto::anbkh_protocol();
    sys.seed = 7 + s;
    sys.intra_delay = [] {
      return std::make_unique<net::FixedDelay>(sim::microseconds(200));
    };
    cfg.systems.push_back(std::move(sys));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  link.delay = [] {
    return std::make_unique<net::FixedDelay>(sim::milliseconds(5));
  };
  cfg.links.push_back(std::move(link));
  isc::Federation fed(std::move(cfg));

  wl::UniformConfig wc;
  wc.ops_per_process = 400;
  wc.seed = 11;
  auto runners = wl::install_uniform(fed, wc);

  // Warm-up: run the first stretch so every queue, pool free list, store,
  // and stats node reaches steady-state capacity...
  fed.run_until(sim::Time{} + sim::milliseconds(150));
  // ...then pin the growable buffers that are *designed* to be pre-sized:
  // the op log gets a generous bound and histogram retention stops growing.
  fed.recorder().reserve(static_cast<std::size_t>(2) * kProcs * 400 * 8);
  fed.observability().metrics().set_histogram_max_samples(256);
  // Fund the pool's free lists past the run's live-block peak: the workload
  // only approaches peak concurrency gradually, and a first-time peak inside
  // the window would count as a (legitimate, one-off) warm-up miss.
  {
    constexpr int kDepth = 256;
    void* blocks[kDepth];
    for (std::size_t bytes : {64u, 128u, 256u, 512u, 1024u}) {
      for (int i = 0; i < kDepth; ++i) blocks[i] = BlockPool::allocate(bytes);
      for (int i = 0; i < kDepth; ++i) BlockPool::deallocate(blocks[i]);
    }
  }
  fed.run_until(sim::Time{} + sim::milliseconds(200));  // settle the new caps

  const std::uint64_t events_before = fed.simulator().events_fired();
  const std::uint64_t allocs_before = allocations();
  const std::uint64_t pool_misses_before = BlockPool::misses();

  fed.run_until(sim::Time{} + sim::milliseconds(600));  // the measured window

  const std::uint64_t events = fed.simulator().events_fired() - events_before;
  EXPECT_EQ(allocations() - allocs_before, 0u)
      << "heap allocations leaked into the steady-state event loop across "
      << events << " events";
  EXPECT_EQ(BlockPool::misses() - pool_misses_before, 0u)
      << "pool fell through to the heap mid-window";
  // The window must be real work, not an idle tail.
  EXPECT_GT(events, 1000u);

  fed.run();  // finish cleanly; completion bookkeeping may allocate
#endif
}

}  // namespace
}  // namespace cim
