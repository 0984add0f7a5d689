// Second-wave interconnect tests: the Section-6 formulas asserted *exactly*
// as tests (messages per write, cross-link traffic, 3l+2d latency), plus
// IS-process bookkeeping invariants (pair counters, forwarding, protocol
// choice conflicts).
#include <gtest/gtest.h>

#include "checker/causal_checker.h"
#include "helpers.h"
#include "mcs/span_feed.h"

namespace cim::isc {
namespace {

using test::X;

FederationConfig chain_cfg(std::size_t m, std::uint16_t procs,
                           sim::Duration l, sim::Duration d,
                           IspMode mode = IspMode::kSharedPerSystem) {
  FederationConfig cfg = test::chain_systems(m, procs, proto::anbkh_protocol());
  cfg.isp_mode = mode;
  for (auto& sc : cfg.systems) {
    sc.intra_delay = [l] { return std::make_unique<net::FixedDelay>(l); };
  }
  for (auto& link : cfg.links) {
    link.delay = [d] { return std::make_unique<net::FixedDelay>(d); };
  }
  return cfg;
}

// E1 as an exact test: n + m - 1 messages per write.
class MessageFormula
    : public ::testing::TestWithParam<std::pair<std::size_t, std::uint16_t>> {};

TEST_P(MessageFormula, MessagesPerWriteIsNPlusMMinus1) {
  const auto [m, procs] = GetParam();
  Federation fed(chain_cfg(m, procs, sim::milliseconds(1),
                           sim::milliseconds(5)));
  const std::uint64_t n = m * procs;

  // One write from each system's first process, sequentially.
  std::uint64_t writes = 0;
  for (std::size_t s = 0; s < m; ++s) {
    fed.system(s).app(0).write(VarId{0}, static_cast<Value>(100 + s));
    fed.run();
    ++writes;
  }
  const std::uint64_t expected =
      writes * (m == 1 ? n - 1 : n + m - 1);
  EXPECT_EQ(fed.fabric().total_messages(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MessageFormula,
    ::testing::Values(std::make_pair(std::size_t{1}, std::uint16_t{6}),
                      std::make_pair(std::size_t{2}, std::uint16_t{3}),
                      std::make_pair(std::size_t{3}, std::uint16_t{4}),
                      std::make_pair(std::size_t{4}, std::uint16_t{2}),
                      std::make_pair(std::size_t{6}, std::uint16_t{2})));

// E2 as an exact test: one pair crosses per write, each direction.
TEST(CrossLinkFormula, ExactlyOnePairPerWriteCrosses) {
  Federation fed(chain_cfg(2, 5, sim::milliseconds(1), sim::milliseconds(5)));
  for (int i = 0; i < 7; ++i) {
    fed.system(0).app(static_cast<std::uint16_t>(i % 5))
        .write(VarId{0}, 100 + i);
  }
  for (int i = 0; i < 4; ++i) {
    fed.system(1).app(static_cast<std::uint16_t>(i % 5))
        .write(VarId{1}, 200 + i);
  }
  fed.run();
  const auto cross = fed.fabric().cross_system_stats(SystemId{0}, SystemId{1});
  EXPECT_EQ(cross.messages, 11u);
}

// E3 as an exact test: chain of 3 with per-link ISPs -> 3l + 2d.
TEST(LatencyFormula, ThreeLPlusTwoDAcrossAChainOfThree) {
  const sim::Duration l = sim::milliseconds(3);
  const sim::Duration d = sim::milliseconds(11);
  FederationConfig cfg = chain_cfg(3, 2, l, d, IspMode::kPerLink);
  Federation fed(std::move(cfg));
  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);

  fed.system(0).app(0).write(X, 1);
  fed.run();
  const WriteId w = WriteId::make(ProcId{SystemId{0}, 0}, 1);

  // Visibility at the far system's application replicas: exactly 3l + 2d.
  const std::vector<ProcId> far{ProcId{SystemId{2}, 0}, ProcId{SystemId{2}, 1}};
  auto vis_far = spans.visibility(w, far);
  ASSERT_TRUE(vis_far.has_value());
  EXPECT_EQ(*vis_far, 3 * l + 2 * d);

  // Middle system: 2l + d.
  const std::vector<ProcId> mid{ProcId{SystemId{1}, 0}};
  auto vis_mid = spans.visibility(w, mid);
  ASSERT_TRUE(vis_mid.has_value());
  EXPECT_EQ(*vis_mid, 2 * l + d);

  // Own system: l.
  const std::vector<ProcId> own{ProcId{SystemId{0}, 1}};
  EXPECT_EQ(*spans.visibility(w, own), l);
}

TEST(LatencyFormula, SharedIspSavesOneIntraTraversal) {
  const sim::Duration l = sim::milliseconds(3);
  const sim::Duration d = sim::milliseconds(11);
  Federation fed(chain_cfg(3, 2, l, d, IspMode::kSharedPerSystem));
  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);
  fed.system(0).app(0).write(X, 1);
  fed.run();
  const std::vector<ProcId> far{ProcId{SystemId{2}, 0}};
  EXPECT_EQ(*spans.visibility(WriteId::make(ProcId{SystemId{0}, 0}, 1), far),
            2 * l + 2 * d);
}

// ------------------------------------------------- IS-process bookkeeping

TEST(IspBookkeeping, PairCountersBalanceAcrossALink) {
  Federation fed(chain_cfg(2, 3, sim::milliseconds(1), sim::milliseconds(4)));
  wl::UniformConfig wc;
  wc.ops_per_process = 20;
  wc.write_fraction = 0.7;
  wc.seed = 3;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  auto& isp0 = fed.interconnector().shared_isp(0);
  auto& isp1 = fed.interconnector().shared_isp(1);
  EXPECT_EQ(isp0.pairs_sent(), isp1.pairs_received());
  EXPECT_EQ(isp1.pairs_sent(), isp0.pairs_received());
  EXPECT_GT(isp0.pairs_sent(), 0u);
}

TEST(IspBookkeeping, HubForwardsEachPairToOtherLinksExactlyOnce) {
  // Star with hub S0 and three leaves; a write in leaf S1 crosses each of
  // the three links exactly once (1 inbound + 2 forwarded outbound).
  FederationConfig cfg;
  for (std::uint16_t s = 0; s < 4; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{s};
    sc.num_app_processes = 2;
    sc.protocol = proto::anbkh_protocol();
    sc.seed = 10 + s;
    cfg.systems.push_back(std::move(sc));
  }
  for (std::size_t leaf = 1; leaf < 4; ++leaf) {
    LinkSpec link;
    link.system_a = 0;
    link.system_b = leaf;
    cfg.links.push_back(link);
  }
  Federation fed(std::move(cfg));

  fed.system(1).app(0).write(X, 7);
  fed.run();

  EXPECT_EQ(fed.fabric().cross_system_stats(SystemId{0}, SystemId{1}).messages,
            1u);  // leaf -> hub
  EXPECT_EQ(fed.fabric().cross_system_stats(SystemId{0}, SystemId{2}).messages,
            1u);  // forwarded
  EXPECT_EQ(fed.fabric().cross_system_stats(SystemId{0}, SystemId{3}).messages,
            1u);  // forwarded
  // And the value arrived everywhere.
  for (std::size_t s = 0; s < 4; ++s) {
    Value got = -1;
    fed.system(s).app(1).read(X, [&](Value v) { got = v; });
    fed.run();
    EXPECT_EQ(got, 7) << "system " << s;
  }
}

TEST(IspBookkeeping, ConflictingChoicesOnSharedIspThrow) {
  FederationConfig cfg;
  for (std::uint16_t s = 0; s < 3; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{s};
    sc.num_app_processes = 1;
    sc.protocol = proto::anbkh_protocol();
    cfg.systems.push_back(std::move(sc));
  }
  LinkSpec l1;
  l1.system_a = 0;
  l1.system_b = 1;
  l1.choice_a = IsProtocolChoice::kForceProtocol1;
  LinkSpec l2;
  l2.system_a = 0;
  l2.system_b = 2;
  l2.choice_a = IsProtocolChoice::kForceProtocol2;  // conflicts at S0's ISP
  cfg.links.push_back(l1);
  cfg.links.push_back(l2);
  EXPECT_THROW(Federation{std::move(cfg)}, InvariantViolation);
}

TEST(IspBookkeeping, PerLinkModeCountsTwoIspsPerInnerSystem) {
  FederationConfig cfg = test::chain_systems(3, 2, proto::anbkh_protocol());
  cfg.isp_mode = IspMode::kPerLink;
  Federation fed(std::move(cfg));
  EXPECT_EQ(fed.system(0).num_processes(), 3);  // 2 apps + 1 ISP
  EXPECT_EQ(fed.system(1).num_processes(), 4);  // 2 apps + 2 ISPs
  EXPECT_EQ(fed.system(2).num_processes(), 3);
  EXPECT_EQ(fed.interconnector().isps().size(), 4u);
}

TEST(IspBookkeeping, SharedModeCountsOneIspPerLinkedSystem) {
  FederationConfig cfg = test::chain_systems(3, 2, proto::anbkh_protocol());
  Federation fed(std::move(cfg));
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(fed.system(s).num_processes(), 3);
  }
  EXPECT_EQ(fed.interconnector().isps().size(), 3u);
}

TEST(IspBookkeeping, UnlinkedSystemGetsNoIsp) {
  FederationConfig cfg;
  for (std::uint16_t s = 0; s < 3; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{s};
    sc.num_app_processes = 2;
    sc.protocol = proto::anbkh_protocol();
    cfg.systems.push_back(std::move(sc));
  }
  LinkSpec link;  // only S0 - S1; S2 stays isolated
  link.system_a = 0;
  link.system_b = 1;
  cfg.links.push_back(link);
  Federation fed(std::move(cfg));
  EXPECT_EQ(fed.system(2).num_processes(), 2);
  EXPECT_THROW(fed.interconnector().shared_isp(2), InvariantViolation);

  // The isolated system still works, it just does not receive updates.
  fed.system(0).app(0).write(X, 1);
  fed.run();
  Value in_isolated = -1;
  fed.system(2).app(0).read(X, [&](Value v) { in_isolated = v; });
  fed.run();
  EXPECT_EQ(in_isolated, kInitValue);
}

// Deep chain end-to-end: latency accumulates linearly, causality holds.
TEST(DeepChain, EightSystemsEndToEnd) {
  const sim::Duration l = sim::milliseconds(1);
  const sim::Duration d = sim::milliseconds(7);
  FederationConfig cfg = chain_cfg(8, 2, l, d, IspMode::kPerLink);
  Federation fed(std::move(cfg));
  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);

  fed.system(0).app(0).write(X, 42);
  fed.run();

  const std::vector<ProcId> far{ProcId{SystemId{7}, 0}};
  auto v = spans.visibility(WriteId::make(ProcId{SystemId{0}, 0}, 1), far);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 8 * l + 7 * d);  // (h+1)l + h*d with h = 7

  Value got = -1;
  fed.system(7).app(1).read(X, [&](Value val) { got = val; });
  fed.run();
  EXPECT_EQ(got, 42);
}

}  // namespace
}  // namespace cim::isc
