// A size-class free-list pool for the simulation hot path.
//
// Everything that crosses a simulator event boundary — scheduled actions that
// overflow SmallFn's inline buffer, network Message objects, spilled
// VectorClock entries — allocates from here instead of the global heap. The
// pool hands out blocks in a handful of power-of-two size classes and keeps
// freed blocks on per-class free lists, so in steady state (after the first
// few events warm the lists) an allocate/deallocate round trip is a pointer
// pop/push and never reaches ::operator new. That is the "allocation-free in
// steady state" invariant documented in docs/ARCHITECTURE.md, and
// tests/alloc_test.cpp enforces it with a global operator-new hook.
//
// Design notes:
//  - Blocks carry a one-word header recording their size class, so
//    deallocate(p) needs no size argument (mirrors operator delete).
//  - The free lists are thread_local. The simulator itself is single-threaded,
//    but one process may run several, each on a thread of its own (the
//    tests and benches run one mesh node per thread); thread_local lists make
//    the pool safe without atomics on the hot path. A block freed on a different thread than it was allocated on simply
//    joins the freeing thread's list — blocks are interchangeable within a
//    class.
//  - Under CIM_SANITIZE the pool passes straight through to ::operator
//    new/delete (keeping the header so the two builds stay layout-identical).
//    ASan then sees every block's true lifetime, and the CI leak check
//    (detect_leaks=1) is not confused by cached blocks: the thread_local
//    cache's destructor releases everything on thread exit in all builds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

namespace cim {

class BlockPool {
 public:
  // Size classes for the *payload* (the header is added on top). 1024 covers
  // the largest hot-path object (a lazy-batch action capturing a spilled
  // clock); anything bigger falls through to the global heap.
  static constexpr std::size_t kClassSizes[] = {64, 128, 256, 512, 1024};
  static constexpr int kNumClasses =
      static_cast<int>(sizeof(kClassSizes) / sizeof(kClassSizes[0]));

  /// Allocate a block with at least `bytes` of payload. Never returns
  /// nullptr (throws std::bad_alloc on exhaustion, like operator new).
  /// Inline: in steady state this is a free-list pop, and the call sits on
  /// the per-event path (messages, spilled actions, spilled clocks).
  static void* allocate(std::size_t bytes) {
    const int c = class_for(bytes);
    Cache& k = cache();
    if (c == kOversize) {
      ++k.misses;
      return stamp(::operator new(kHeader + bytes), kOversize);
    }
#if !defined(CIM_SANITIZE)
    if (FreeNode* node = k.free_lists[c]) {
      k.free_lists[c] = node->next;
      --k.cached;
      ++k.hits;
      return node;
    }
#endif
    ++k.misses;
    return stamp(::operator new(kHeader + kClassSizes[c]),
                 static_cast<std::int32_t>(c));
  }

  /// Return a block obtained from allocate(). nullptr is a no-op.
  static void deallocate(void* p) noexcept {
    if (p == nullptr) return;
    const std::int32_t c = read_class(p);
#if !defined(CIM_SANITIZE)
    if (c != kOversize) {
      Cache& k = cache();
      FreeNode* node = static_cast<FreeNode*>(p);
      node->next = k.free_lists[c];
      k.free_lists[c] = node;
      ++k.cached;
      return;
    }
#endif
    (void)c;
    ::operator delete(static_cast<unsigned char*>(p) - kHeader);
  }

  /// Blocks currently cached on this thread's free lists (test/stats hook).
  static std::size_t cached_blocks() noexcept;

  /// Release this thread's cached blocks back to the global heap.
  static void trim() noexcept;

  /// Total pool hits (reused blocks) and misses (fresh heap allocations)
  /// on this thread since start — the alloc_test steady-state probe.
  static std::uint64_t hits() noexcept;
  static std::uint64_t misses() noexcept;

 private:
  struct FreeNode {
    FreeNode* next;
  };

  // One max_align_t-sized header in front of every payload keeps the payload
  // itself maximally aligned while leaving room for the size class.
  static constexpr std::size_t kHeader = alignof(std::max_align_t);
  static constexpr std::int32_t kOversize = -1;

  // Per-thread cache. The destructor trims on thread exit so sanitizer leak
  // detection sees a clean heap.
  struct Cache {
    FreeNode* free_lists[kNumClasses] = {};
    std::size_t cached = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    ~Cache();
  };
  static Cache& cache() noexcept {
    thread_local Cache instance;
    return instance;
  }

  static int class_for(std::size_t bytes) noexcept {
    for (int c = 0; c < kNumClasses; ++c) {
      if (bytes <= kClassSizes[c]) return c;
    }
    return kOversize;
  }

  static std::int32_t read_class(void* payload) noexcept {
    std::int32_t c;
    std::memcpy(&c, static_cast<unsigned char*>(payload) - kHeader,
                sizeof(c));
    return c;
  }

  static void* stamp(void* raw, std::int32_t c) noexcept {
    std::memcpy(raw, &c, sizeof(c));
    return static_cast<unsigned char*>(raw) + kHeader;
  }
};

}  // namespace cim
