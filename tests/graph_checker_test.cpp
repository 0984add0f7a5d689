// Tests for the scaled checker core: columnar history storage (column.h,
// HistoryBuilder), the sparse dependency graph (SCC, toposort, vector-clock
// reachability), adversarial history shapes, and the repeated-value
// (∃-assignment) semantics — cross-validated against the brute-force
// SearchChecker over 1000+ seeded random histories with duplicate values.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "checker/causal_checker.h"
#include "checker/column.h"
#include "checker/graph.h"
#include "checker/search_checker.h"
#include "checker/trace_history.h"
#include "common/rng.h"
#include "helpers.h"

namespace cim::chk {
namespace {

using test::H;
using test::X;
using test::Y;
using test::Z;
const VarId U{3};
const VarId V{4};
const VarId S{5};

// ----------------------------------------------------------------- columns

TEST(Column, BitColumnRoundTrip) {
  col::BitColumn c;
  std::vector<bool> ref;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const bool b = rng.chance(0.3);
    c.push_back(b);
    ref.push_back(b);
  }
  ASSERT_EQ(c.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(c[i], ref[i]);
  EXPECT_LE(c.bytes(), 1000 / 8 + 16u);
}

TEST(Column, I64ColumnHandlesOverflowValues) {
  col::I64Column c;
  const std::vector<std::int64_t> vals = {
      0, 1, -1, 1000, -1000, INT64_MAX, INT64_MIN, 42, INT64_MAX - 1, 0};
  for (auto v : vals) c.push_back(v);
  for (std::size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(c[i], vals[i]);
  col::I64Column::Cursor cur(c);
  for (std::size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(cur.next(), vals[i]);
}

TEST(Column, DeltaColumnMonotoneTimestampsStayCompact) {
  col::DeltaI64Column c;
  std::vector<std::int64_t> ref;
  Rng rng(11);
  std::int64_t t = 1'000'000'000'000LL;  // ~realistic ns timestamps
  for (int i = 0; i < 5000; ++i) {
    t += static_cast<std::int64_t>(rng.uniform(0, 100'000));
    c.push_back(t);
    ref.push_back(t);
  }
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(c[i], ref[i]);
  col::DeltaI64Column::Cursor cur(c);
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(cur.next(), ref[i]);
  // Deltas fit u32: ~4.5 B/entry (u32 slots + checkpoints), not 8.
  EXPECT_LT(static_cast<double>(c.bytes()) / 5000.0, 5.0);
}

TEST(Column, DeltaColumnHandlesNonMonotoneAndHugeJumps) {
  col::DeltaI64Column c;
  const std::vector<std::int64_t> vals = {100, 50, INT64_MAX / 2, 0, -5,
                                          INT64_MIN / 2, 7};
  for (auto v : vals) c.push_back(v);
  for (std::size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(c[i], vals[i]);
}

TEST(Column, VarColumnPromotesPastU16) {
  col::VarColumn c;
  for (std::uint32_t v = 0; v < 70'000; ++v) c.push(VarId{v});
  EXPECT_EQ(c.num_vars(), 70'000u);
  EXPECT_EQ(c.var(65'999).value, 65'999u);
  EXPECT_EQ(c.var(69'999).value, 69'999u);
  EXPECT_EQ(c.dense(1234), 1234u);
}

// ------------------------------------------------------- columnar history

TEST(ColumnarHistory, BytesPerOpWellBelowStructFootprint) {
  HistoryBuilder b;
  Rng rng(3);
  std::int64_t t = 0;
  for (int i = 0; i < 100'000; ++i) {
    const ProcId proc{SystemId{0}, static_cast<std::uint16_t>(i % 8)};
    t += static_cast<std::int64_t>(rng.uniform(1, 2000));
    b.add(proc, false, i % 3 ? OpKind::kWrite : OpKind::kRead,
          VarId{static_cast<std::uint32_t>(i % 64)}, i, sim::Time{t},
          sim::Time{t + 500});
  }
  History h = b.build();
  ASSERT_EQ(h.size(), 100'000u);
  // The acceptance bar: >= 4x below the old per-Op footprint.
  EXPECT_LE(h.bytes_per_op(),
            static_cast<double>(History::struct_bytes_per_op()) / 4.0)
      << "bytes_per_op=" << h.bytes_per_op();
}

TEST(ColumnarHistory, BuilderMatchesOpVectorConstructor) {
  Rng rng(9);
  std::vector<Op> ops;
  HistoryBuilder b;
  std::map<ProcId, std::uint64_t> seq;
  for (int i = 0; i < 500; ++i) {
    Op op;
    op.proc = ProcId{SystemId{static_cast<std::uint16_t>(rng.uniform(0, 1))},
                     static_cast<std::uint16_t>(rng.uniform(0, 3))};
    op.kind = rng.chance(0.5) ? OpKind::kWrite : OpKind::kRead;
    op.is_isp = rng.chance(0.1);
    op.var = VarId{static_cast<std::uint32_t>(rng.uniform(0, 5))};
    op.value = static_cast<Value>(rng.uniform(0, 1'000'000));
    op.proc_seq = seq[op.proc]++;
    op.invoked = sim::Time{static_cast<std::int64_t>(rng.uniform(0, 1 << 30))};
    op.responded = sim::Time{op.invoked.ns + 17};
    ops.push_back(op);
    b.add(op);
  }
  History via_builder = b.build();
  History via_ctor{ops};
  ASSERT_EQ(via_builder.size(), via_ctor.size());
  EXPECT_EQ(via_builder.to_string(), via_ctor.to_string());
  for (std::size_t i = 0; i < via_builder.size(); ++i) {
    EXPECT_EQ(via_builder.invoked(i), via_ctor.invoked(i));
    EXPECT_EQ(via_builder.responded(i), via_ctor.responded(i));
    EXPECT_EQ(via_builder.is_isp(i), via_ctor.is_isp(i));
  }
}

TEST(ColumnarHistory, AccessorsMatchMaterializedOps) {
  auto h = H{}.wr(0, X, 7).rd(1, X, 7).wr(1, Y, 9).history();
  for (std::size_t i = 0; i < h.size(); ++i) {
    const Op op = h.op(i);
    EXPECT_EQ(h.kind(i), op.kind);
    EXPECT_EQ(h.var(i), op.var);
    EXPECT_EQ(h.value(i), op.value);
    EXPECT_EQ(h.proc(i), op.proc);
    EXPECT_EQ(h.proc_seq(i), op.proc_seq);
    EXPECT_EQ(h.is_isp(i), op.is_isp);
  }
  EXPECT_EQ(h.num_vars(), 2u);
  EXPECT_EQ(h.var_of_dense(h.var_dense(0)), h.var(0));
}

// ------------------------------------------------------------ sparse graph

History chain_history(std::size_t per_proc, std::size_t procs) {
  HistoryBuilder b;
  Value v = 1;
  for (std::size_t p = 0; p < procs; ++p) {
    for (std::size_t i = 0; i < per_proc; ++i) {
      b.add(ProcId{SystemId{0}, static_cast<std::uint16_t>(p)}, false,
            OpKind::kWrite, X, v++, sim::Time{}, sim::Time{});
    }
  }
  return b.build();
}

TEST(SparseGraph, TopoOrderRespectsPoAndEdges) {
  History h = chain_history(4, 2);  // ops 0-3 on p0, 4-7 on p1
  SparseGraph g(h);
  g.set_edges({{3, 4}});  // last of p0 -> first of p1
  std::vector<std::uint32_t> order;
  ASSERT_TRUE(g.topo_order(order, nullptr));
  std::vector<std::uint32_t> pos(h.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (std::uint32_t i = 0; i + 1 < 4; ++i) EXPECT_LT(pos[i], pos[i + 1]);
  EXPECT_LT(pos[3], pos[4]);
}

TEST(SparseGraph, CycleYieldsWitnessInsideScc) {
  History h = chain_history(2, 2);  // 0,1 | 2,3
  SparseGraph g(h);
  g.set_edges({{1, 2}, {3, 0}});  // 0->1->2->3->0
  std::vector<std::uint32_t> order;
  std::pair<std::uint32_t, std::uint32_t> w{99, 99};
  ASSERT_FALSE(g.topo_order(order, &w));
  // Both witnesses are in the cycle and mutually reachable.
  std::vector<std::uint32_t> comp;
  g.scc(comp);
  EXPECT_EQ(comp[w.first], comp[w.second]);
  EXPECT_NE(w.first, w.second);
}

TEST(SparseGraph, SccSeparatesComponents) {
  History h = chain_history(3, 2);  // 0,1,2 | 3,4,5
  SparseGraph g(h);
  g.set_edges({{4, 3}});  // 3<->4 cycle via po 3->4 and edge 4->3
  std::vector<std::uint32_t> comp;
  const std::size_t n_comp = g.scc(comp);
  EXPECT_EQ(n_comp, 5u);  // {0}{1}{2}{3,4}{5}
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[1]);
  EXPECT_NE(comp[3], comp[5]);
}

TEST(SparseGraph, ClockReachabilityMatchesDenseClosure) {
  // Random DAGs: clocks-based reaches() must equal dense transitive closure.
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t procs = 1 + rng.uniform(0, 3);
    const std::size_t per_proc = 1 + rng.uniform(0, 5);
    History h = chain_history(per_proc, procs);
    const std::size_t n = h.size();
    SparseGraph g(h);
    // Random forward edges only (acyclic by construction).
    std::vector<Edge> edges;
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b) {
        if (rng.chance(0.15)) edges.push_back({a, b});
      }
    }
    g.set_edges(edges);
    std::vector<std::uint32_t> order;
    ASSERT_TRUE(g.topo_order(order, nullptr));
    std::vector<std::uint32_t> clk;
    g.clocks(order, clk);
    // Dense reference over po ∪ edges.
    Relation r(n);
    for (const Edge& e : edges) r.set(e.from, e.to);
    for (std::size_t p = 0; p < h.num_processes(); ++p) {
      const History::Span s = h.process_span(p);
      for (std::size_t i = s.begin; i + 1 < s.end; ++i) r.set(i, i + 1);
    }
    auto closed = transitive_closure(r);
    ASSERT_FALSE(closed.cycle_witness.has_value());
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = 0; b < n; ++b) {
        if (a == b) continue;
        EXPECT_EQ(g.reaches(clk, a, b), closed.closure.test(a, b))
            << a << "->" << b;
      }
    }
  }
}

// ----------------------------------------------------- adversarial shapes

TEST(CheckerAdversarial, LongSingleProcessChain) {
  HistoryBuilder b;
  const ProcId p{SystemId{0}, 0};
  for (int i = 0; i < 20'000; ++i) {
    b.add(p, false, OpKind::kWrite, X, i + 1, sim::Time{}, sim::Time{});
    b.add(p, false, OpKind::kRead, X, i + 1, sim::Time{}, sim::Time{});
  }
  EXPECT_TRUE(CausalChecker{}.check(b.build(), Level::kCM).ok());
}

TEST(CheckerAdversarial, WideAntiChainOfWriters) {
  // 300 processes, one concurrent write each, one reader seeing all of
  // them in some order: every pair of writes is concurrent, and the CM
  // derivation materializes the quadratic observed-order edge set.
  HistoryBuilder b;
  for (std::uint16_t p = 0; p < 300; ++p) {
    b.add(ProcId{SystemId{0}, p}, false, OpKind::kWrite, X, p + 1,
          sim::Time{}, sim::Time{});
  }
  const ProcId reader{SystemId{1}, 0};
  for (std::uint16_t p = 0; p < 300; ++p) {
    b.add(reader, false, OpKind::kRead, X, p + 1, sim::Time{}, sim::Time{});
  }
  EXPECT_TRUE(CausalChecker{}.check(b.build(), Level::kCM).ok());
}

TEST(CheckerAdversarial, AllSameValueWritesUnreadIsCausal) {
  // Maximal reads-from ambiguity with nothing to resolve: no reads at all.
  HistoryBuilder b;
  for (std::uint16_t p = 0; p < 50; ++p) {
    for (int i = 0; i < 40; ++i) {
      b.add(ProcId{SystemId{0}, p}, false, OpKind::kWrite, X, 1, sim::Time{},
            sim::Time{});
    }
  }
  auto res = CausalChecker{}.check(b.build(), Level::kCM);
  EXPECT_TRUE(res.ok()) << res.detail;
  EXPECT_EQ(res.stats.ambiguous_reads, 0u);
}

TEST(CheckerAdversarial, AllSameValueWithReadersExercisesResidualSearch) {
  // Every read of the single value is maximally ambiguous; the visible-
  // latest-first candidate ordering must find an admissible assignment
  // without blowing the budget.
  auto h = H{}
               .wr(0, X, 1)
               .wr(1, X, 1)
               .wr(2, X, 1)
               .rd(3, X, 1)
               .rd(3, X, 1)
               .rd(4, X, 1)
               .history();
  auto res = CausalChecker{}.check(h, Level::kCM);
  EXPECT_TRUE(res.ok()) << res.detail;
  EXPECT_EQ(res.stats.ambiguous_reads, 3u);
}

TEST(CheckerAdversarial, ResidualBudgetExhaustionReportsUnknown) {
  // Force an unsatisfiable residual problem wide enough that a budget of 1
  // cannot prove it either way: the verdict must be kResidualLimit, not a
  // wrong definite answer.
  H h;
  for (std::uint16_t p = 0; p < 4; ++p) h.wr(p, X, 1);
  h.wr(4, X, 2);
  // Reader sees 2 (which overwrote nothing po-wise) then flip-flops 1,2,1:
  // stale under every assignment, but finding out needs > 1 attempt.
  h.rd(5, X, 1).rd(5, X, 2).rd(5, X, 1);
  auto res = CausalChecker{CheckOptions{.residual_budget = 1}}.check(
      h.history(), Level::kCM);
  EXPECT_EQ(res.pattern, BadPattern::kResidualLimit) << res.detail;
  // With the default budget the same history gets a definite verdict.
  auto full = CausalChecker{}.check(h.history(), Level::kCM);
  EXPECT_NE(full.pattern, BadPattern::kResidualLimit);
}

// --------------------------------------- repeated-value property validation

// 1000+ seeded random histories with *repeated values*: the sparse
// ∃-assignment checker must agree with the brute-force SearchChecker.
class DuplicateValueCrossValidation
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DuplicateValueCrossValidation, SparseCheckerMatchesSearch) {
  Rng rng(GetParam() * 7919 + 13);
  for (int trial = 0; trial < 25; ++trial) {
    H h;
    const int num_ops = 3 + static_cast<int>(rng.uniform(0, 6));
    // Values drawn from a pool of just 3, so duplicate writes of the same
    // (var, value) pair are common.
    for (int i = 0; i < num_ops; ++i) {
      const auto proc = static_cast<std::uint16_t>(rng.uniform(0, 2));
      const VarId var{static_cast<std::uint32_t>(rng.uniform(0, 1))};
      const Value v = static_cast<Value>(rng.uniform(1, 3));
      if (rng.chance(0.55)) {
        h.wr(proc, var, v);
      } else {
        h.rd(proc, var, rng.chance(0.15) ? kInitValue : v);
      }
    }
    auto history = h.history();
    auto fast = CausalChecker{}.check(history, Level::kCM);
    if (fast.pattern == BadPattern::kResidualLimit) continue;  // unknown
    auto slow = SearchChecker{}.is_causal(history);
    if (!slow.has_value()) continue;  // search budget exceeded — skip
    EXPECT_EQ(fast.ok(), *slow)
        << "checkers disagree (" << to_string(fast.pattern) << " — "
        << fast.detail << " — vs search "
        << (*slow ? "causal" : "not causal") << ") on:\n"
        << history.to_string();
  }
}

// 48 seeds x 25 trials = 1200 repeated-value histories.
INSTANTIATE_TEST_SUITE_P(Seeds, DuplicateValueCrossValidation,
                         ::testing::Range<std::uint64_t>(1, 49));

// Same cross-validation at level kCC via the CC-subset property: if CM
// accepts, CC must accept (patterns are a superset).
TEST(DuplicateValues, CMImpliesCCWithRepeatedValues) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    H h;
    const int num_ops = 3 + static_cast<int>(rng.uniform(0, 7));
    for (int i = 0; i < num_ops; ++i) {
      const auto proc = static_cast<std::uint16_t>(rng.uniform(0, 2));
      const VarId var{static_cast<std::uint32_t>(rng.uniform(0, 1))};
      const Value v = static_cast<Value>(rng.uniform(1, 2));
      if (rng.chance(0.55)) {
        h.wr(proc, var, v);
      } else {
        h.rd(proc, var, v);
      }
    }
    auto history = h.history();
    const auto cm = CausalChecker{}.check(history, Level::kCM);
    const auto cc = CausalChecker{}.check(history, Level::kCC);
    if (cm.pattern == BadPattern::kResidualLimit ||
        cc.pattern == BadPattern::kResidualLimit) {
      continue;
    }
    EXPECT_TRUE(!cm.ok() || cc.ok())
        << "CM ok but CC bad on:\n" << history.to_string();
  }
}

// ------------------------------------------------- repeated-value regression

TEST(DuplicateValues, FederationFullHistoryWithIspCopiesIsCheckable) {
  // Regression for the old silent rejection: the *full* recorder history of
  // a federation contains each propagated write twice (origin + ISP copy)
  // — same variable, same value. The old checker refused it outright with
  // kDuplicateWrite; it must now produce a real verdict.
  isc::Federation fed(test::two_systems(2, proto::anbkh_protocol(),
                                        proto::anbkh_protocol()));
  fed.system(0).app(0).write(X, 1);
  fed.system(0).app(0).write(Y, 2);
  fed.system(1).app(1).write(X, 3);
  fed.run();
  const History full = fed.recorder().full();
  // Sanity: the ISP copies really do duplicate (var, value) pairs.
  bool has_dup = false;
  for (std::size_t i = 0; i < full.size() && !has_dup; ++i) {
    for (std::size_t j = i + 1; j < full.size() && !has_dup; ++j) {
      has_dup = full.is_write(i) && full.is_write(j) &&
                full.var(i) == full.var(j) && full.value(i) == full.value(j);
    }
  }
  ASSERT_TRUE(has_dup);
  const auto res = CausalChecker{}.check(full, Level::kCM);
  EXPECT_NE(res.pattern, BadPattern::kResidualLimit);
  EXPECT_TRUE(res.ok()) << res.detail;
}

// ------------------------------------- kCM happens-before derivation rounds

// Pins on kCM violations that need a second derivation round of the
// per-process happens-before fixpoint of process 0. Its first round
// derives a -> b (a write of x is HB-before r1, which reads b). That edge
// makes w1 HB-before r', which reads w2, so only the second round derives
// w1 -> w2. The expected results are those of the full-rebuild fixpoint
// (one Kahn/Tarjan/clock pass over rf ∪ derived per round), which the
// incremental fixpoint must reproduce byte for byte.
TEST(HappensBeforeRounds, CyclicHBAppearsOnlyInRoundTwo) {
  auto h = H{}
               .wr(3, Y, 2)   // w2
               .wr(3, S, 1)   // e
               .rd(1, S, 1)   // reads e: w2 reaches w1 through it
               .wr(1, Y, 1)   // w1
               .wr(1, X, 1)   // a
               .wr(1, U, 1)   // d
               .wr(2, X, 2)   // b
               .wr(2, Z, 1)   // c
               .rd(0, Z, 1)   // r0: reads c, so b is before it
               .rd(0, Y, 2)   // r': reads w2
               .rd(0, U, 1)   // reads d: a is before r1
               .rd(0, X, 2)   // r1: reads b
               .history();
  ASSERT_TRUE(CausalChecker{}.check(h, Level::kCC).ok());
  const CheckResult res = CausalChecker{}.check(h, Level::kCM);
  EXPECT_EQ(res.pattern, BadPattern::kCyclicHB);
  EXPECT_EQ(res.detail,
            "happens-before cycle for p(0,0) through r(x5)1@p(0,1)#0 and "
            "w(x1)1@p(0,1)#1");
  EXPECT_EQ(res.stats.explicit_edges, 7u);  // 5 rf + 2 derived
  EXPECT_EQ(res.stats.hb_rounds, 2u);
  EXPECT_EQ(SearchChecker{}.is_causal(h), std::optional<bool>(false));
}

TEST(HappensBeforeRounds, WriteHBInitReadAppearsOnlyInRoundTwo) {
  // As above, but w2 reaches a read of the initial value of v through e
  // instead of closing a cycle: after round two, wv -> w1 -> w2 -> e makes
  // wv happen before that read.
  auto h = H{}
               .wr(1, V, 1)           // wv
               .wr(1, Y, 1)           // w1
               .wr(1, X, 1)           // a
               .wr(1, U, 1)           // d
               .wr(2, X, 2)           // b
               .wr(2, Z, 1)           // c
               .wr(3, Y, 2)           // w2
               .wr(3, S, 1)           // e
               .rd(0, S, 1)           // reads e
               .rd(0, V, kInitValue)  // the stale initial-value read
               .rd(0, Z, 1)           // r0: reads c, so b is before it
               .rd(0, Y, 2)           // r': reads w2
               .rd(0, U, 1)           // reads d: a is before r1
               .rd(0, X, 2)           // r1: reads b
               .history();
  ASSERT_TRUE(CausalChecker{}.check(h, Level::kCC).ok());
  const CheckResult res = CausalChecker{}.check(h, Level::kCM);
  EXPECT_EQ(res.pattern, BadPattern::kWriteHBInitRead);
  EXPECT_EQ(res.detail,
            "r(x4)0@p(0,0)#1 returns the initial value but, for p(0,0), "
            "w(x4)1@p(0,1)#0 happens before it");
  EXPECT_EQ(res.stats.explicit_edges, 7u);  // 5 rf + 2 derived
  EXPECT_EQ(res.stats.hb_rounds, 2u);
  EXPECT_EQ(SearchChecker{}.is_causal(h), std::optional<bool>(false));
}

// A random distinct-value history around a chain of `depth` derivation
// rounds for reader process 0. Writer 1 writes a_depth, ..., a_1 (a_k on
// x_k) and then d; writer 1+k writes b_k (also on x_k) and then c_k. The
// reader reads d and then b_1, so round 1 derives a_1 -> b_1; for k >= 2
// it reads c_{k-1} and then b_k *earlier*, so a_k happens before that read
// only through a_k ->po a_{k-1} -> b_{k-1} -> c_{k-1}, and round k derives
// a_k -> b_k. An optional planted anomaly lets round `depth` close a cycle
// or expose a stale initial-value read, a stale-value anomaly rewrites one
// read, and a few random noise ops go anywhere. Only process 0 reads
// anything but a single-writer variable, so hb_rounds counts its rounds.
History derivation_chain_history(Rng& rng, int depth) {
  struct Step {
    bool write;
    VarId var;
    Value value;
  };
  const auto procs = static_cast<std::size_t>(depth) + 2;
  std::vector<std::vector<Step>> prog(procs);
  std::map<std::uint32_t, std::vector<Value>> written;
  Value counter = 0;
  auto wr = [&](std::size_t p, VarId var) {
    prog[p].push_back({true, var, ++counter});
    written[var.value].push_back(counter);
    return counter;
  };
  auto x = [](int k) { return VarId{static_cast<std::uint32_t>(k)}; };
  auto z = [](int k) { return VarId{static_cast<std::uint32_t>(10 + k)}; };
  const VarId d_var{20}, u_var{21}, s_var{22};

  const int anomaly = static_cast<int>(rng.uniform(0, 3));  // 0: none
  if (anomaly == 2) wr(1, u_var);
  std::vector<Value> a(depth + 1), b(depth + 1), c(depth + 1);
  for (int k = depth; k >= 1; --k) a[k] = wr(1, x(k));
  const Value d = wr(1, d_var);
  for (int k = 1; k <= depth; ++k) {
    b[k] = wr(1 + k, x(k));
    c[k] = wr(1 + k, z(k));
  }
  if (anomaly == 1 || anomaly == 2) {
    const Value e = wr(1 + depth, s_var);
    if (anomaly == 1) {
      // Writer 1 reads e first: b_depth reaches a_depth, and round `depth`
      // closes a cycle.
      prog[1].insert(prog[1].begin(), Step{false, s_var, e});
    } else {
      prog[0].push_back({false, s_var, e});
      prog[0].push_back({false, u_var, kInitValue});
    }
  }
  for (int k = depth; k >= 2; --k) {
    prog[0].push_back({false, z(k - 1), c[k - 1]});
    prog[0].push_back({false, x(k), b[k]});
  }
  prog[0].push_back({false, d_var, d});
  prog[0].push_back({false, x(1), b[1]});

  for (int n = static_cast<int>(rng.uniform(0, 5)); n > 0; --n) {
    const std::size_t p = rng.uniform(0, procs - 1);
    const VarId var =
        rng.chance(0.5) ? x(static_cast<int>(rng.uniform(1, depth)))
                        : z(static_cast<int>(rng.uniform(1, depth)));
    auto& ops = prog[p];
    const auto at = static_cast<std::ptrdiff_t>(rng.uniform(0, ops.size()));
    if (p == 0 && rng.chance(0.5)) {
      const std::vector<Value>& vals = written[var.value];
      const Value v = vals[rng.uniform(0, vals.size() - 1)];
      ops.insert(ops.begin() + at, Step{false, var, v});
    } else {
      ops.insert(ops.begin() + at, Step{true, var, ++counter});
      written[var.value].push_back(counter);
    }
  }
  if (anomaly == 3) {
    // Stale value: one read of process 0 returns another write of its
    // variable, or the initial value.
    Step& r = prog[0][rng.uniform(0, prog[0].size() - 1)];
    if (!r.write) {
      const std::vector<Value>& vals = written[r.var.value];
      const std::size_t pick = rng.uniform(0, vals.size());
      r.value = pick == vals.size() ? kInitValue : vals[pick];
    }
  }

  H h;
  for (std::size_t p = 0; p < procs; ++p) {
    for (const Step& st : prog[p]) {
      if (st.write) {
        h.wr(static_cast<std::uint16_t>(p), st.var, st.value);
      } else {
        h.rd(static_cast<std::uint16_t>(p), st.var, st.value);
      }
    }
  }
  return h.history();
}

// kCM must agree with SearchChecker on every chain history. At least 40% of
// them must run two or more derivation rounds (220 of 400 at this seed, 144
// of them three or more), and at least 20% must fail with an HB pattern
// (160 of 400), so the multi-round path of the fixpoint, its cycle test and
// its final scan are known to be exercised. A digest of every result
// (pattern, witness, edge and round counts) pins them to the full-rebuild
// fixpoint's output.
TEST(HappensBeforeRounds, MultiRoundFixpointMatchesSearch) {
  constexpr int kHistories = 400;
  Rng rng(20261018);
  int checked = 0, multi_round = 0, hb_violations = 0;
  std::ostringstream results;
  for (int trial = 0; trial < kHistories; ++trial) {
    const History history =
        derivation_chain_history(rng, static_cast<int>(rng.uniform(1, 4)));
    const CheckResult fast = CausalChecker{}.check(history, Level::kCM);
    results << to_string(fast.pattern) << '|' << fast.detail << '|'
            << fast.stats.explicit_edges << '|' << fast.stats.hb_rounds
            << '\n';
    const auto slow = SearchChecker{}.is_causal(history);
    if (!slow.has_value()) continue;
    ++checked;
    if (fast.stats.hb_rounds >= 2) ++multi_round;
    if (fast.pattern == BadPattern::kCyclicHB ||
        fast.pattern == BadPattern::kWriteHBInitRead) {
      ++hb_violations;
    }
    EXPECT_EQ(fast.ok(), *slow)
        << to_string(fast.pattern) << " — " << fast.detail << " on:\n"
        << history.to_string();
  }
  EXPECT_GE(checked, kHistories * 9 / 10);
  EXPECT_GE(multi_round * 5, checked * 2);
  EXPECT_GE(hb_violations * 5, checked);
  EXPECT_EQ(test::fnv1a(results.str()), 0xdad43d895dd20597ULL);
}

// A read's own writer is overwritten only in HB_0. Process 0 writes w1 and
// reads it back at r; w1 is co-before w2 (process 3 reads s, written after
// w1). Round 1 derives a -> b, which makes w2 happen before r, so round 2
// derives w2 -> w1 and closes the cycle w1 -> s -> w2 -> w1. An HB flavor
// of WriteCORead (w1 HB-before w2 HB-before r) would need exactly that
// cycle, so the fixpoint reports it as CyclicHB.
TEST(HappensBeforeRounds, OverwriteOnlyInHappensBeforeIsCyclicHB) {
  auto h = H{}
               .wr(0, Y, 1)   // w1
               .wr(0, S, 1)   // s
               .rd(0, Z, 1)   // reads c, so b is before it
               .rd(0, Y, 1)   // r: reads w1
               .rd(0, U, 1)   // reads d: a is before the next read
               .rd(0, X, 2)   // reads b
               .wr(2, X, 2)   // b
               .wr(2, Z, 1)   // c
               .rd(3, S, 1)   // reads s: w1 is before w2
               .wr(3, Y, 2)   // w2
               .wr(3, X, 1)   // a
               .wr(3, U, 1)   // d
               .history();
  ASSERT_TRUE(CausalChecker{}.check(h, Level::kCC).ok());
  const CheckResult res = CausalChecker{}.check(h, Level::kCM);
  EXPECT_EQ(res.pattern, BadPattern::kCyclicHB);
  EXPECT_EQ(res.detail,
            "happens-before cycle for p(0,0) through w(x1)1@p(0,0)#0 and "
            "w(x5)1@p(0,0)#1");
  EXPECT_EQ(res.stats.explicit_edges, 7u);  // 5 rf + 2 derived
  EXPECT_EQ(res.stats.hb_rounds, 2u);
  EXPECT_EQ(SearchChecker{}.is_causal(h), std::optional<bool>(false));
}

// A seeded history shaped around the edges of the (variable, process) write
// buckets the pattern scans walk: each bucket is left empty, capped at one
// write, or open, writes come singly or in bursts of 20-200 (far longer than
// a galloping step), and every process ends by reading every variable, past
// each bucket's last write. Each process keeps a replica that applies the
// others' writes in causal order, a random prefix at a time, and reads
// return its replica's value, so the reads see concurrent writes in
// different orders (the kCM fixpoint's derived edges). A few reads are made
// stale (an earlier write of the variable, or the initial value), which
// gives the violations. `small` histories stay within SearchChecker's reach.
History cursor_edge_history(Rng& rng, bool small) {
  struct Write {
    std::uint32_t var;
    Value value;
    std::vector<std::uint32_t> dep;  // writes of each process applied
  };
  const std::size_t procs = small ? 2 : 3 + rng.uniform(0, 2);
  const std::uint32_t vars = small ? 2 : 4;
  // Half the large histories have no stale read at all.
  const double stale = small ? 0.4 : rng.chance(0.5) ? 0.0 : 0.004;
  constexpr int kOpen = 1 << 20;
  std::vector<int> room(procs * vars);  // writes left per bucket
  for (int& r : room) {
    const double u = rng.uniform01();
    r = u < 0.25 ? 0 : u < 0.5 ? 1 : kOpen;
  }
  std::vector<std::vector<Write>> log(procs);
  std::vector<std::vector<std::uint32_t>> applied(
      procs, std::vector<std::uint32_t>(procs, 0));
  std::vector<std::vector<Value>> store(
      procs, std::vector<Value>(vars, kInitValue));
  std::vector<std::vector<Value>> written(vars);
  Value counter = 0;
  H h;
  auto read = [&](std::size_t p, std::uint32_t v) {
    Value val = store[p][v];
    if (rng.chance(stale)) {
      const std::vector<Value>& ws = written[v];
      const std::size_t pick = rng.uniform(0, ws.size());
      val = pick == ws.size() ? kInitValue : ws[pick];
    }
    h.rd(static_cast<std::uint16_t>(p), VarId{v}, val);
  };
  // Applies at p the next writes of q whose dependencies p has applied.
  auto deliver = [&](std::size_t p, std::size_t q, std::size_t max) {
    for (; max > 0 && applied[p][q] < log[q].size(); --max) {
      const Write& w = log[q][applied[p][q]];
      for (std::size_t o = 0; o < procs; ++o) {
        if (o != q && w.dep[o] > applied[p][o]) return;
      }
      store[p][w.var] = w.value;
      ++applied[p][q];
    }
  };
  const int steps = small ? 4 + static_cast<int>(rng.uniform(0, 3))
                          : 80 + static_cast<int>(rng.uniform(0, 80));
  for (int s = 0; s < steps; ++s) {
    const std::size_t p = rng.uniform(0, procs - 1);
    const auto v = static_cast<std::uint32_t>(rng.uniform(0, vars - 1));
    const double u = rng.uniform01();
    if (u < 0.35) {
      int len = 1;
      if (!small) {
        len = rng.chance(0.1) ? 20 + static_cast<int>(rng.uniform(0, 180))
                              : 1 + static_cast<int>(rng.uniform(0, 2));
      }
      for (int& left = room[p * vars + v]; len > 0 && left > 0; --len) {
        --left;
        h.wr(static_cast<std::uint16_t>(p), VarId{v}, ++counter);
        log[p].push_back({v, counter, applied[p]});
        ++applied[p][p];
        store[p][v] = counter;
        written[v].push_back(counter);
      }
    } else if (u < 0.7) {
      const int len = small ? 1 : 1 + static_cast<int>(rng.uniform(0, 7));
      for (int k = 0; k < len; ++k) read(p, v);
    } else {
      const std::size_t q = rng.uniform(0, procs - 1);
      if (q != p) {
        deliver(p, q, rng.chance(0.3) ? SIZE_MAX : 1 + rng.uniform(0, 3));
      }
    }
  }
  for (std::size_t p = 0; p < procs; ++p) {
    for (std::uint32_t v = 0; v < vars; ++v) {
      if (!small || rng.chance(0.3)) read(p, v);
    }
  }
  return h.history();
}

// kCC, kCM and kCCv over 60 large and 300 small cursor-edge histories. The
// small ones must agree with SearchChecker at kCM, and each level must keep
// its inclusions (kCM or kCCv clean implies kCC clean). A digest of every
// result (pattern, witness, edge and round counts) pins them to the output
// of the per-read binary search the frontier cursor replaced.
TEST(FrontierCursor, EdgeHistoriesMatchSearchAndPinnedDigest) {
  Rng rng(20261019);
  int checked = 0, violations = 0, multi_round = 0;
  std::ostringstream results;
  for (int trial = 0; trial < 360; ++trial) {
    const bool small = trial >= 60;
    const History history = cursor_edge_history(rng, small);
    CheckResult at[3];
    const Level levels[3] = {Level::kCC, Level::kCM, Level::kCCv};
    for (int k = 0; k < 3; ++k) {
      at[k] = CausalChecker{}.check(history, levels[k]);
      results << to_string(at[k].pattern) << '|' << at[k].detail << '|'
              << at[k].stats.explicit_edges << '|' << at[k].stats.hb_rounds
              << '\n';
    }
    EXPECT_TRUE(!at[1].ok() || at[0].ok()) << history.to_string();
    EXPECT_TRUE(!at[2].ok() || at[0].ok()) << history.to_string();
    if (!at[1].ok()) ++violations;
    if (at[1].stats.hb_rounds >= 2) ++multi_round;
    if (!small) continue;
    const auto slow = SearchChecker{}.is_causal(history);
    if (!slow.has_value()) continue;
    ++checked;
    EXPECT_EQ(at[1].ok(), *slow)
        << to_string(at[1].pattern) << " — " << at[1].detail << " on:\n"
        << history.to_string();
  }
  EXPECT_GE(checked, 270);
  EXPECT_GE(violations, 30);
  EXPECT_GE(multi_round, 30);
  EXPECT_EQ(test::fnv1a(results.str()), 0xcba79bc91122384aULL);
}

// -------------------------------------------------------- trace streaming

obs::ParsedTraceEvent mcs_event(const char* name, ProcId proc,
                                std::uint32_t var, Value val,
                                std::uint64_t wid, std::int64_t t) {
  std::ostringstream json;
  json << "{\"v\":2,\"seq\":1,\"t\":" << t << ",\"cat\":\"mcs\",\"ev\":\""
       << name << "\",\"f\":{\"proc\":\"" << proc.system.value << "."
       << proc.index << "\",\"var\":" << var << ",\"val\":" << val
       << ",\"wid\":" << wid << "}}";
  obs::ParsedTraceEvent ev;
  EXPECT_TRUE(obs::parse_trace_line(json.str(), ev, nullptr));
  return ev;
}

TEST(TraceHistory, MatchesIssueDonePairsAndFlagsIspCopies) {
  TraceHistoryBuilder b;
  const ProcId app0{SystemId{0}, 0};
  const ProcId isp1{SystemId{1}, 7};
  b.observe(mcs_event("write_issue", app0, 0, 5, 101, 10));
  b.observe(mcs_event("write_done", app0, 0, 5, 101, 20));
  // The ISP re-issues wid 101 into the sibling system: flagged is_isp.
  b.observe(mcs_event("write_issue", isp1, 0, 5, 101, 30));
  b.observe(mcs_event("write_done", isp1, 0, 5, 101, 40));
  b.observe(mcs_event("read_issue", app0, 0, 0, 0, 50));
  b.observe(mcs_event("read_done", app0, 0, 5, 0, 60));
  History h = b.build();
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(b.stats().ops, 3u);
  EXPECT_EQ(b.stats().isp_ops, 1u);
  std::size_t isp_count = 0;
  for (std::size_t i = 0; i < h.size(); ++i) isp_count += h.is_isp(i);
  EXPECT_EQ(isp_count, 1u);
  // The α^T projection is causal and the read carries its timestamps.
  History app = h.filter([](const Op& op) { return !op.is_isp; });
  EXPECT_TRUE(CausalChecker{}.check(app, Level::kCM).ok());
}

TEST(TraceHistory, DropsIncompleteAndOrphanRecords) {
  TraceHistoryBuilder b;
  const ProcId p{SystemId{0}, 0};
  b.observe(mcs_event("write_issue", p, 0, 1, 1, 10));  // done never arrives
  b.observe(mcs_event("read_done", p, 3, 9, 0, 20));    // no matching issue
  b.observe(mcs_event("read_issue", p, 1, 0, 0, 30));
  b.observe(mcs_event("read_done", p, 1, 0, 0, 40));
  History h = b.build();
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(b.stats().orphan_dones, 1u);
  EXPECT_GE(b.stats().pending, 1u);
  EXPECT_EQ(h.kind(0), OpKind::kRead);
  EXPECT_EQ(h.invoked(0), sim::Time{30});
  EXPECT_EQ(h.responded(0), sim::Time{40});
}

}  // namespace
}  // namespace cim::chk
