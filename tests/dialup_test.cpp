// Experiment E7: link outages ("dial-up" interconnection, Section 1.1).
// Updates queue while the inter-system link is down and drain in FIFO order
// when it comes up; causality and delivery are preserved throughout.
#include <gtest/gtest.h>

#include "checker/causal_checker.h"
#include "helpers.h"
#include "mcs/span_feed.h"

namespace cim::isc {
namespace {

using test::X;

FederationConfig dialup_config(std::uint64_t seed,
                               sim::Duration period, sim::Duration up) {
  FederationConfig cfg = test::two_systems(2, proto::anbkh_protocol(),
                                           proto::anbkh_protocol(), seed);
  cfg.links[0].delay = [] {
    return std::make_unique<net::FixedDelay>(sim::milliseconds(2));
  };
  cfg.links[0].availability = [period, up] {
    return std::make_unique<net::PeriodicDuty>(period, up);
  };
  return cfg;
}

TEST(Dialup, UpdateWaitsForUpWindow) {
  // Link up for 10ms in every 100ms. A write at t=20ms (down) crosses only
  // at the next window (t=100ms).
  Federation fed(dialup_config(1, sim::milliseconds(100),
                               sim::milliseconds(10)));
  auto& sim = fed.simulator();
  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);

  sim.at(sim::Time{} + sim::milliseconds(20),
         [&] { fed.system(0).app(0).write(X, 1); });
  fed.run();

  // Visible in S1 only after the 100ms window opened.
  const ProcId remote_reader{SystemId{1}, 0};
  auto applied = spans.apply_time(WriteId::make(ProcId{SystemId{0}, 0}, 1),
                                  remote_reader);
  ASSERT_TRUE(applied.has_value());
  EXPECT_GE(*applied, sim::Time{} + sim::milliseconds(100));
  EXPECT_LE(*applied, sim::Time{} + sim::milliseconds(110));
}

TEST(Dialup, NothingIsLostAcrossOutages) {
  Federation fed(dialup_config(2, sim::milliseconds(50), sim::milliseconds(5)));
  auto& sim = fed.simulator();
  // 20 writes spread over several outage periods.
  for (int i = 0; i < 20; ++i) {
    sim.at(sim::Time{} + sim::milliseconds(7 * i),
           [&, i] { fed.system(0).app(0).write(VarId{0}, 100 + i); });
  }
  fed.run();
  // Every value reached S1's IS-process (FIFO: the last write is last).
  EXPECT_EQ(fed.interconnector().shared_isp(1).pairs_received(), 20u);
  auto& remote = dynamic_cast<proto::AnbkhProcess&>(fed.system(1).mcs(0));
  EXPECT_EQ(remote.replica_value(VarId{0}), 119);
}

class DialupSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DialupSweep, RandomWorkloadUnderOutagesIsCausal) {
  FederationConfig cfg = dialup_config(GetParam(), sim::milliseconds(40),
                                       sim::milliseconds(8));
  Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 30;
  wc.num_vars = 4;
  wc.think_max = sim::milliseconds(10);
  wc.seed = GetParam() * 17 + 9;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  for (const auto& r : runners) ASSERT_TRUE(r->done());
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DialupSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Dialup, ExtremeDutyCycleStillDelivers) {
  // Up only 1ms in every 200ms: severe but functional.
  Federation fed(dialup_config(3, sim::milliseconds(200), sim::milliseconds(1)));
  fed.system(0).app(0).write(X, 7);
  fed.system(1).app(0).write(VarId{1}, 8);
  fed.run();
  Value x_in_1 = -1, y_in_0 = -1;
  fed.system(1).app(1).read(X, [&](Value v) { x_in_1 = v; });
  fed.system(0).app(1).read(VarId{1}, [&](Value v) { y_in_0 = v; });
  fed.run();
  EXPECT_EQ(x_in_1, 7);
  EXPECT_EQ(y_in_0, 8);
}

}  // namespace
}  // namespace cim::isc
