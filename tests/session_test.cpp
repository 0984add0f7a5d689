// Tests: session guarantees as labels of the online monitor's witnesses
// (OnlineMonitor::check replays a history through the monitor's one
// causality rule), on hand-written histories (each guarantee violated in
// isolation) and on protocol executions (all protocols satisfy all
// guarantees). Every verdict is cross-checked against CausalChecker at kCC.
#include <gtest/gtest.h>

#include <vector>

#include "checker/causal_checker.h"
#include "checker/online_monitor.h"
#include "helpers.h"
#include "protocols/anbkh.h"

namespace cim::chk {
namespace {

using test::H;
using test::X;
using test::Y;

// Replays `h` through the monitor and expects its verdict to equal the
// checker's kCC verdict, and its witnesses to be genuine.
std::vector<Violation> replay(const History& h) {
  std::vector<Violation> v = OnlineMonitor::check(h);
  EXPECT_EQ(v.empty(), CausalChecker{}.check(h, Level::kCC).ok())
      << h.to_string();
  test::expect_genuine_witnesses(h, v);
  return v;
}

// The label of the history's one violation (kNone when it has none).
Guarantee label_of(const History& h) {
  const std::vector<Violation> v = replay(h);
  EXPECT_LE(v.size(), 1u);
  return v.empty() ? Guarantee::kNone : v.front().label;
}

// ------------------------------------------------------- read-your-writes

TEST(SessionRyw, OwnWriteThenOwnReadOk) {
  auto h = H{}.wr(0, X, 1).rd(0, X, 1).history();
  EXPECT_EQ(label_of(h), Guarantee::kNone);
}

TEST(SessionRyw, InitReadAfterOwnWriteViolates) {
  auto h = H{}.wr(0, X, 1).rd(0, X, kInitValue).history();
  EXPECT_EQ(label_of(h), Guarantee::kReadYourWrites);
}

TEST(SessionRyw, CausallyOlderValueAfterOwnWriteViolates) {
  // p1 observes 1, writes 2, then reads the strictly older 1 again.
  auto h = H{}
               .wr(0, X, 1)
               .rd(1, X, 1)
               .wr(1, X, 2)
               .rd(1, X, 1)
               .history();
  EXPECT_EQ(label_of(h), Guarantee::kReadYourWrites);
}

TEST(SessionRyw, ConcurrentOverwriteIsAllowed) {
  // p1 writes 2; a concurrent write 1 may overwrite it at p1's replica.
  auto h = H{}.wr(0, X, 1).wr(1, X, 2).rd(1, X, 1).history();
  EXPECT_EQ(label_of(h), Guarantee::kNone);
}

// -------------------------------------------------------- monotonic reads

TEST(SessionMr, ForwardProgressOk) {
  auto h = H{}.wr(0, X, 1).wr(0, X, 2).rd(1, X, 1).rd(1, X, 2).history();
  EXPECT_EQ(label_of(h), Guarantee::kNone);
}

TEST(SessionMr, CausalRegressionViolates) {
  auto h = H{}.wr(0, X, 1).wr(0, X, 2).rd(1, X, 2).rd(1, X, 1).history();
  EXPECT_EQ(label_of(h), Guarantee::kMonotonicReads);
}

TEST(SessionMr, RegressionToInitViolates) {
  auto h = H{}.wr(0, X, 1).rd(1, X, 1).rd(1, X, kInitValue).history();
  EXPECT_EQ(label_of(h), Guarantee::kMonotonicReads);
}

TEST(SessionMr, SwitchBetweenConcurrentValuesAllowed) {
  auto h = H{}.wr(0, X, 1).wr(1, X, 2).rd(2, X, 2).rd(2, X, 1).history();
  EXPECT_EQ(label_of(h), Guarantee::kNone);
}

TEST(SessionMr, PerVariableIndependence) {
  auto h = H{}
               .wr(0, X, 1)
               .wr(0, Y, 2)
               .rd(1, X, 1)
               .rd(1, Y, kInitValue)  // different variable: not a regression
               .history();
  EXPECT_EQ(label_of(h), Guarantee::kNone);
}

// ------------------------------------------------------- monotonic writes

TEST(SessionMw, ObservingWriterOrderOk) {
  auto h = H{}.wr(0, X, 1).wr(0, X, 2).rd(1, X, 1).rd(1, X, 2).history();
  EXPECT_EQ(label_of(h), Guarantee::kNone);
}

TEST(SessionMw, InvertedWriterOrderViolates) {
  // The history of SessionMr.CausalRegressionViolates: the reader's
  // previous read of x returned the missed write, so the first label that
  // applies is monotonic-reads.
  auto h = H{}.wr(0, X, 1).wr(0, X, 2).rd(1, X, 2).rd(1, X, 1).history();
  EXPECT_EQ(label_of(h), Guarantee::kMonotonicReads);
}

TEST(SessionMw, WriterOrderInvertedAcrossVariables) {
  // Claim 4: the reader sees p0's later write to y, then x's initial value.
  auto h =
      H{}.wr(0, X, 1).wr(0, Y, 2).rd(1, Y, 2).rd(1, X, kInitValue).history();
  EXPECT_EQ(label_of(h), Guarantee::kMonotonicWrites);
}

TEST(SessionMw, DifferentWritersDoNotTrigger) {
  auto h = H{}.wr(0, X, 1).wr(1, X, 2).rd(2, X, 2).rd(2, X, 1).history();
  EXPECT_EQ(label_of(h), Guarantee::kNone);
}

// ----------------------------------------------------- writes-follow-reads

TEST(SessionWfr, WriteAfterReadSeenWithoutTheRead) {
  // p1 writes y after reading x=1; p2 sees y but not x.
  auto h = H{}
               .wr(0, X, 1)
               .rd(1, X, 1)
               .wr(1, Y, 2)
               .rd(2, Y, 2)
               .rd(2, X, kInitValue)
               .history();
  EXPECT_EQ(label_of(h), Guarantee::kWritesFollowReads);
}

// ---------------------------------------------------------------- combined

TEST(SessionAll, ReportsGuaranteeNameInDetail) {
  auto h = H{}.wr(0, X, 1).rd(0, X, kInitValue).history();
  const std::vector<Violation> v = replay(h);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_STREQ(to_string(v[0].label), "read-your-writes");
  EXPECT_EQ(v[0].pattern, BadPattern::kWriteCOInitRead);
  EXPECT_EQ(v[0].proc, h.process(0));
  EXPECT_EQ(v[0].w2, WriteId::make(h.process(0), 1));
}

TEST(SessionAll, PreconditionFailuresReported) {
  // Duplicate writes alone are fine. A read of a repeated value returns
  // the first write of it in the history (CausalChecker searches the
  // ambiguous assignments instead); a thin-air read stops the replay.
  auto dup = H{}.wr(0, X, 5).wr(1, X, 5).history();
  EXPECT_TRUE(replay(dup).empty());
  auto ambiguous = H{}.wr(0, X, 5).wr(1, X, 5).rd(2, X, 5).history();
  EXPECT_TRUE(OnlineMonitor::check(ambiguous).empty());
  auto thin = H{}.rd(0, X, 77).history();
  const std::vector<Violation> v = replay(thin);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].pattern, BadPattern::kThinAirRead);
  // A read of the process's own later write can never be replayed.
  auto cyclic = H{}.rd(0, X, 5).wr(0, X, 5).history();
  const std::vector<Violation> c = replay(cyclic);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].pattern, BadPattern::kCyclicCO);
}

// Every protocol's executions satisfy every session guarantee.
struct ProtoParam {
  int which;
  std::uint64_t seed;
};

class SessionProtocols : public ::testing::TestWithParam<ProtoParam> {};

TEST_P(SessionProtocols, AllGuaranteesHoldOnRandomWorkloads) {
  mcs::ProtocolFactory factory;
  switch (GetParam().which) {
    case 0: factory = proto::anbkh_protocol(); break;
    case 1: {
      proto::LazyBatchConfig lc;
      lc.order = proto::BatchOrder::kShuffleVars;
      factory = proto::lazy_batch_protocol(lc);
      break;
    }
    case 2: factory = proto::aw_seq_protocol(); break;
    default: factory = proto::tob_causal_protocol(); break;
  }
  isc::FederationConfig cfg =
      test::two_systems(3, factory, factory, GetParam().seed);
  cfg.monitor.enabled = true;
  isc::Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 30;
  wc.num_vars = 4;
  wc.seed = GetParam().seed * 7 + GetParam().which;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  EXPECT_TRUE(replay(fed.federation_history()).empty());
  EXPECT_EQ(fed.monitor()->violation_count(), 0u);  // live, the same rule
}

std::vector<ProtoParam> session_params() {
  std::vector<ProtoParam> out;
  for (int w = 0; w < 4; ++w) {
    for (std::uint64_t s : {1, 2, 3}) out.push_back({w, s});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, SessionProtocols,
                         ::testing::ValuesIn(session_params()));

}  // namespace
}  // namespace cim::chk
