// Unit tests: common utilities (ids, vector clocks, the causal queue, rng).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/causal_queue.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/vector_clock.h"

namespace cim {
namespace {

TEST(Ids, StrongTypesCompare) {
  EXPECT_EQ(SystemId{1}, SystemId{1});
  EXPECT_NE(SystemId{1}, SystemId{2});
  EXPECT_LT(SystemId{1}, SystemId{2});

  const ProcId a{SystemId{0}, 1};
  const ProcId b{SystemId{1}, 0};
  EXPECT_LT(a, b);
  EXPECT_EQ(a, (ProcId{SystemId{0}, 1}));

  EXPECT_LT(VarId{3}, VarId{4});
  EXPECT_LT(OpId{3}, OpId{4});
}

TEST(Ids, HashDistinguishesProcs) {
  std::set<std::size_t> hashes;
  for (std::uint16_t s = 0; s < 4; ++s) {
    for (std::uint16_t p = 0; p < 4; ++p) {
      hashes.insert(std::hash<ProcId>{}(ProcId{SystemId{s}, p}));
    }
  }
  EXPECT_EQ(hashes.size(), 16u);
}

TEST(VectorClock, StartsAtZero) {
  VectorClock vc(3);
  EXPECT_EQ(vc.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(vc[i], 0u);
}

TEST(VectorClock, TickAndSet) {
  VectorClock vc(3);
  vc.tick(1);
  vc.tick(1);
  vc.set(2, 7);
  EXPECT_EQ(vc[0], 0u);
  EXPECT_EQ(vc[1], 2u);
  EXPECT_EQ(vc[2], 7u);
}

TEST(VectorClock, LeqIsPointwise) {
  VectorClock a{1, 2, 3};
  VectorClock b{1, 3, 3};
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
  EXPECT_TRUE(a.leq(a));
}

TEST(VectorClock, StrictPrecedence) {
  VectorClock a{1, 2};
  VectorClock b{1, 3};
  EXPECT_TRUE(a.lt(b));
  EXPECT_FALSE(b.lt(a));
  EXPECT_FALSE(a.lt(a));
}

TEST(VectorClock, Concurrency) {
  VectorClock a{2, 0};
  VectorClock b{0, 2};
  EXPECT_TRUE(a.concurrent_with(b));
  EXPECT_TRUE(b.concurrent_with(a));
  VectorClock c{2, 2};
  EXPECT_FALSE(a.concurrent_with(c));
}

TEST(VectorClock, MergeIsPointwiseMax) {
  VectorClock a{1, 5, 0};
  VectorClock b{3, 2, 4};
  a.merge(b);
  EXPECT_EQ(a, (VectorClock{3, 5, 4}));
}

TEST(VectorClock, ReadyAtExactNextFromWriter) {
  VectorClock replica{2, 3, 1};

  // Writer 0's next write: entry 0 must be exactly replica[0]+1 and the rest
  // must not exceed the replica's knowledge.
  VectorClock w{3, 3, 1};
  EXPECT_TRUE(w.ready_at(replica, 0));

  VectorClock gap{4, 3, 1};  // skips a write by 0
  EXPECT_FALSE(gap.ready_at(replica, 0));

  VectorClock dep{3, 3, 2};  // depends on an unseen write by 2
  EXPECT_FALSE(dep.ready_at(replica, 0));

  VectorClock old{2, 3, 1};  // already applied
  EXPECT_FALSE(old.ready_at(replica, 0));
}

TEST(VectorClock, ReadyAtAllowsOlderKnowledge) {
  VectorClock replica{2, 3, 5};
  VectorClock w{3, 1, 0};  // writer 0 knew less than the replica does
  EXPECT_TRUE(w.ready_at(replica, 0));
}

TEST(VectorClock, ToStringFormat) {
  VectorClock vc{1, 0, 2};
  EXPECT_EQ(vc.to_string(), "[1,0,2]");
}

// --- Small-vector storage: the inline<->heap spill boundary at kInline. ---

TEST(VectorClock, SpillBoundarySizes) {
  // One below, at, and one above the inline capacity; 9 spills to the pool.
  for (std::size_t n : {VectorClock::kInline - 1, VectorClock::kInline,
                        VectorClock::kInline + 1, std::size_t{16}}) {
    VectorClock vc(n);
    ASSERT_EQ(vc.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(vc[i], 0u) << n;
    for (std::size_t i = 0; i < n; ++i) vc.set(i, i * i + 1);
    vc.tick(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) EXPECT_EQ(vc[i], i * i + 1) << n;
    EXPECT_EQ(vc[n - 1], (n - 1) * (n - 1) + 2) << n;
  }
}

TEST(VectorClock, CopyAndMoveAcrossSpillBoundary) {
  for (std::size_t n : {VectorClock::kInline - 1, VectorClock::kInline,
                        VectorClock::kInline + 1}) {
    VectorClock src(n);
    for (std::size_t i = 0; i < n; ++i) src.set(i, 10 + i);

    VectorClock copied(src);
    EXPECT_EQ(copied, src) << n;
    copied.tick(0);
    EXPECT_EQ(src[0], 10u) << n;  // deep copy, no shared storage

    VectorClock moved(std::move(copied));
    ASSERT_EQ(moved.size(), n);
    EXPECT_EQ(moved[0], 11u) << n;

    // Assignment across representations: heap -> inline and inline -> heap.
    VectorClock small{1, 2};
    small = src;
    EXPECT_EQ(small, src) << n;
    VectorClock big(VectorClock::kInline + 4);
    big = src;
    EXPECT_EQ(big, src) << n;

    // Move-assignment; the moved-from clock is empty but reusable. `moved`
    // carries the tick on entry 0 from above.
    VectorClock expected(src);
    expected.set(0, 11);
    VectorClock target;
    target = std::move(moved);
    EXPECT_EQ(target, expected) << n;
    EXPECT_EQ(moved.size(), 0u) << n;
    moved = src;
    EXPECT_EQ(moved, src) << n;
  }
}

// Plain dense reference implementations of the comparison algebra, to pin
// the small-vector code against (spilled sizes included).
std::vector<std::uint64_t> ref_merge(std::vector<std::uint64_t> a,
                                     const std::vector<std::uint64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::max(a[i], b[i]);
  return a;
}

bool ref_leq(const std::vector<std::uint64_t>& a,
             const std::vector<std::uint64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

bool ref_ready_at(const std::vector<std::uint64_t>& w,
                  const std::vector<std::uint64_t>& replica,
                  std::size_t writer) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (i == writer ? w[i] != replica[i] + 1 : w[i] > replica[i]) return false;
  }
  return true;
}

TEST(VectorClock, AlgebraMatchesDenseReference) {
  Rng rng(2024);
  for (std::size_t n : {std::size_t{2}, VectorClock::kInline - 1,
                        VectorClock::kInline, VectorClock::kInline + 1,
                        std::size_t{12}}) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint64_t> ra(n), rb(n);
      VectorClock a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        ra[i] = rng.uniform(0, 3);
        rb[i] = rng.uniform(0, 3);
        a.set(i, ra[i]);
        b.set(i, rb[i]);
      }

      EXPECT_EQ(a.leq(b), ref_leq(ra, rb));
      EXPECT_EQ(a.lt(b), ref_leq(ra, rb) && ra != rb);
      EXPECT_EQ(a.concurrent_with(b), !ref_leq(ra, rb) && !ref_leq(rb, ra));

      const std::size_t writer = rng.uniform(0, n - 1);
      EXPECT_EQ(a.ready_at(b, writer), ref_ready_at(ra, rb, writer));

      VectorClock merged(a);
      merged.merge(b);
      const std::vector<std::uint64_t> ref = ref_merge(ra, rb);
      ASSERT_EQ(merged.size(), n);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(merged[i], ref[i]);
    }
  }
}

struct Stamped {
  VectorClock clock;
  std::uint16_t writer = 0;
  int id = 0;
};

Stamped stamped(std::initializer_list<std::uint64_t> clock,
                std::uint16_t writer, int id) {
  return Stamped{VectorClock(clock), writer, id};
}

// Pop every ready update, advancing `clock` as a replica would; returns the
// ids in pop order (at most 1000, so a broken queue cannot spin forever).
std::vector<int> drain(CausalQueue<Stamped>& q, VectorClock& clock) {
  std::vector<int> ids;
  while (ids.size() < 1000) {
    auto u = q.pop_ready(clock);
    if (!u) break;
    clock.set(u->writer, u->clock[u->writer]);
    ids.push_back(u->id);
  }
  return ids;
}

TEST(CausalQueue, ReadyUpdatesPopInArrivalOrder) {
  CausalQueue<Stamped> q;
  q.push(stamped({0, 1}, 1, 1));
  q.push(stamped({1, 0}, 0, 2));
  EXPECT_EQ(q.size(), 2u);
  VectorClock clock(2);
  EXPECT_EQ(drain(q, clock), (std::vector<int>{1, 2}));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(clock, (VectorClock{1, 1}));
}

TEST(CausalQueue, UnreadyHeadWaitsWhileALaterUpdatePops) {
  CausalQueue<Stamped> q;
  q.push(stamped({2, 0}, 0, 1));  // needs writer 0's first write
  q.push(stamped({0, 1}, 1, 2));
  q.push(stamped({2, 2}, 1, 3));  // needs id 1 and id 2
  VectorClock clock(2);
  EXPECT_EQ(drain(q, clock), (std::vector<int>{2}));  // erased mid-queue
  EXPECT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.pop_ready(clock).has_value());
  q.push(stamped({1, 0}, 0, 4));
  EXPECT_EQ(drain(q, clock), (std::vector<int>{4, 1, 3}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(CausalQueue, HeadPopsAndCompactionKeepArrivalOrder) {
  // A burst from writer 0 queued behind nothing pops from the head; one
  // unready update from writer 1 then pins the head while later updates
  // pop around it, across several compactions.
  CausalQueue<Stamped> q;
  VectorClock clock(2);
  for (int i = 1; i <= 8; ++i) {
    q.push(stamped({static_cast<std::uint64_t>(i), 0}, 0, i));
  }
  for (int i = 1; i <= 5; ++i) {
    auto u = q.pop_ready(clock);
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(u->id, i);
    clock.set(0, u->clock[0]);
    EXPECT_EQ(q.size(), static_cast<std::size_t>(8 - i));
  }
  q.push(stamped({8, 2}, 1, 100));  // waits for writer 1's first write
  for (int i = 9; i <= 20; ++i) {
    q.push(stamped({static_cast<std::uint64_t>(i), 0}, 0, i));
  }
  std::vector<int> want;
  for (int i = 6; i <= 20; ++i) want.push_back(i);
  EXPECT_EQ(drain(q, clock), want);
  EXPECT_EQ(q.size(), 1u);
  q.push(stamped({0, 1}, 1, 101));
  EXPECT_EQ(drain(q, clock), (std::vector<int>{101, 100}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(CausalQueue, MatchesAnEraseOnlyReferenceOnRandomHistories) {
  // Causal histories of 3 writers arriving in random order, popped a few at
  // a time; the queue must pop exactly what a plain first-ready-then-erase
  // vector pops.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<VectorClock> local(3, VectorClock(3));
    std::vector<Stamped> history;
    for (int i = 0; i < 60; ++i) {
      const auto w = static_cast<std::uint16_t>(rng.uniform(0, 2));
      if (rng.chance(0.5)) local[w].merge(local[rng.uniform(0, 2)]);
      local[w].tick(w);
      history.push_back(Stamped{local[w], w, i});
    }
    for (std::size_t i = history.size(); i > 1; --i) {
      std::swap(history[i - 1], history[rng.uniform(0, i - 1)]);
    }

    CausalQueue<Stamped> q;
    std::vector<Stamped> ref;
    VectorClock clock(3);
    VectorClock ref_clock(3);
    auto pop_both = [&]() -> bool {
      auto it = std::find_if(ref.begin(), ref.end(), [&](const Stamped& u) {
        return u.clock.ready_at(ref_clock, u.writer);
      });
      auto u = q.pop_ready(clock);
      EXPECT_EQ(u.has_value(), it != ref.end());
      if (!u || it == ref.end()) return false;
      EXPECT_EQ(u->id, it->id);
      clock.set(u->writer, u->clock[u->writer]);
      ref_clock.set(it->writer, it->clock[it->writer]);
      ref.erase(it);
      return true;
    };
    for (const Stamped& u : history) {
      q.push(u);
      ref.push_back(u);
      for (std::uint64_t k = rng.uniform(0, 3); k > 0 && pop_both(); --k) {
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (pop_both()) {
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(q.size(), 0u);
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(4, 4), 4u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(99);
  Rng child = a.split();
  // The child stream should not just replay the parent's.
  int same = 0;
  Rng parent_copy(99);
  (void)parent_copy.next();  // advance past the split draw
  for (int i = 0; i < 32; ++i) {
    if (child.next() == parent_copy.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace cim
