// Tests: the session-guarantee checkers, on hand-written histories (each
// guarantee violated in isolation) and on protocol executions (all
// protocols satisfy all guarantees).
#include <gtest/gtest.h>

#include "checker/session_checker.h"
#include "helpers.h"
#include "protocols/anbkh.h"

namespace cim::chk {
namespace {

using test::H;
using test::X;
using test::Y;

// ------------------------------------------------------- read-your-writes

TEST(SessionRyw, OwnWriteThenOwnReadOk) {
  auto h = H{}.wr(0, X, 1).rd(0, X, 1).history();
  EXPECT_TRUE(
      SessionChecker{}.check(h, SessionGuarantee::kReadYourWrites).ok);
}

TEST(SessionRyw, InitReadAfterOwnWriteViolates) {
  auto h = H{}.wr(0, X, 1).rd(0, X, kInitValue).history();
  auto r = SessionChecker{}.check(h, SessionGuarantee::kReadYourWrites);
  EXPECT_FALSE(r.ok);
}

TEST(SessionRyw, CausallyOlderValueAfterOwnWriteViolates) {
  // p1 observes 1, writes 2, then reads the strictly older 1 again.
  auto h = H{}
               .wr(0, X, 1)
               .rd(1, X, 1)
               .wr(1, X, 2)
               .rd(1, X, 1)
               .history();
  auto r = SessionChecker{}.check(h, SessionGuarantee::kReadYourWrites);
  EXPECT_FALSE(r.ok);
}

TEST(SessionRyw, ConcurrentOverwriteIsAllowed) {
  // p1 writes 2; a concurrent write 1 may overwrite it at p1's replica.
  auto h = H{}.wr(0, X, 1).wr(1, X, 2).rd(1, X, 1).history();
  EXPECT_TRUE(
      SessionChecker{}.check(h, SessionGuarantee::kReadYourWrites).ok);
}

// -------------------------------------------------------- monotonic reads

TEST(SessionMr, ForwardProgressOk) {
  auto h = H{}.wr(0, X, 1).wr(0, X, 2).rd(1, X, 1).rd(1, X, 2).history();
  EXPECT_TRUE(SessionChecker{}.check(h, SessionGuarantee::kMonotonicReads).ok);
}

TEST(SessionMr, CausalRegressionViolates) {
  auto h = H{}.wr(0, X, 1).wr(0, X, 2).rd(1, X, 2).rd(1, X, 1).history();
  EXPECT_FALSE(
      SessionChecker{}.check(h, SessionGuarantee::kMonotonicReads).ok);
}

TEST(SessionMr, RegressionToInitViolates) {
  auto h = H{}.wr(0, X, 1).rd(1, X, 1).rd(1, X, kInitValue).history();
  EXPECT_FALSE(
      SessionChecker{}.check(h, SessionGuarantee::kMonotonicReads).ok);
}

TEST(SessionMr, SwitchBetweenConcurrentValuesAllowed) {
  auto h = H{}.wr(0, X, 1).wr(1, X, 2).rd(2, X, 2).rd(2, X, 1).history();
  EXPECT_TRUE(SessionChecker{}.check(h, SessionGuarantee::kMonotonicReads).ok);
}

TEST(SessionMr, PerVariableIndependence) {
  auto h = H{}
               .wr(0, X, 1)
               .wr(0, Y, 2)
               .rd(1, X, 1)
               .rd(1, Y, kInitValue)  // different variable: not a regression
               .history();
  EXPECT_TRUE(SessionChecker{}.check(h, SessionGuarantee::kMonotonicReads).ok);
}

// ------------------------------------------------------- monotonic writes

TEST(SessionMw, ObservingWriterOrderOk) {
  auto h = H{}.wr(0, X, 1).wr(0, X, 2).rd(1, X, 1).rd(1, X, 2).history();
  EXPECT_TRUE(
      SessionChecker{}.check(h, SessionGuarantee::kMonotonicWrites).ok);
}

TEST(SessionMw, InvertedWriterOrderViolates) {
  auto h = H{}.wr(0, X, 1).wr(0, X, 2).rd(1, X, 2).rd(1, X, 1).history();
  EXPECT_FALSE(
      SessionChecker{}.check(h, SessionGuarantee::kMonotonicWrites).ok);
}

TEST(SessionMw, DifferentWritersDoNotTrigger) {
  auto h = H{}.wr(0, X, 1).wr(1, X, 2).rd(2, X, 2).rd(2, X, 1).history();
  EXPECT_TRUE(
      SessionChecker{}.check(h, SessionGuarantee::kMonotonicWrites).ok);
}

// ---------------------------------------------------------------- combined

TEST(SessionAll, ReportsGuaranteeNameInDetail) {
  auto h = H{}.wr(0, X, 1).rd(0, X, kInitValue).history();
  auto r = SessionChecker{}.check_all(h);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("read-your-writes"), std::string::npos);
}

TEST(SessionAll, PreconditionFailuresReported) {
  // Duplicate writes alone are fine now; only a read that makes reads-from
  // ambiguous defeats the session analysis (which needs the unique source).
  auto dup = H{}.wr(0, X, 5).wr(1, X, 5).history();
  EXPECT_TRUE(SessionChecker{}.check_all(dup).ok);
  auto ambiguous = H{}.wr(0, X, 5).wr(1, X, 5).rd(2, X, 5).history();
  auto r = SessionChecker{}.check_all(ambiguous);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("ambiguous reads-from"), std::string::npos);
  auto thin = H{}.rd(0, X, 77).history();
  EXPECT_FALSE(SessionChecker{}.check_all(thin).ok);
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
  isc::Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 30;
  wc.num_vars = 4;
  wc.seed = GetParam().seed * 7 + GetParam().which;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  auto r = SessionChecker{}.check_all(fed.federation_history());
  EXPECT_TRUE(r.ok) << r.detail;
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
