// Unit/integration tests: the ANBKH causal memory protocol within one
// system.
#include <gtest/gtest.h>

#include "checker/causal_checker.h"
#include "helpers.h"

namespace cim::proto {
namespace {

using test::X;
using test::Y;

TEST(Anbkh, ReadReturnsInitBeforeAnyWrite) {
  auto fed = isc::Federation(test::single_system(2, anbkh_protocol()));
  Value got = -1;
  fed.system(0).app(0).read(X, [&](Value v) { got = v; });
  fed.run();
  EXPECT_EQ(got, kInitValue);
}

TEST(Anbkh, WriteIsImmediatelyLocallyVisible) {
  auto fed = isc::Federation(test::single_system(2, anbkh_protocol()));
  Value got = -1;
  auto& app = fed.system(0).app(0);
  app.write(X, 7);
  app.read(X, [&](Value v) { got = v; });
  fed.run();
  EXPECT_EQ(got, 7);
}

TEST(Anbkh, WriteEventuallyVisibleRemotely) {
  auto fed = isc::Federation(test::single_system(3, anbkh_protocol()));
  fed.system(0).app(0).write(X, 7);
  fed.run();
  Value got1 = -1, got2 = -1;
  fed.system(0).app(1).read(X, [&](Value v) { got1 = v; });
  fed.system(0).app(2).read(X, [&](Value v) { got2 = v; });
  fed.run();
  EXPECT_EQ(got1, 7);
  EXPECT_EQ(got2, 7);
}

TEST(Anbkh, BroadcastCostIsNMinusOneMessagesPerWrite) {
  auto fed = isc::Federation(test::single_system(5, anbkh_protocol()));
  fed.system(0).app(0).write(X, 1);
  fed.system(0).app(2).write(Y, 2);
  fed.run();
  EXPECT_EQ(fed.fabric().total_messages(), 2u * 4u);
}

TEST(Anbkh, BuffersCausallyPrematureUpdate) {
  // Delay model: p0 -> p2 is slow, p1 -> p2 fast; p1's write depends on
  // p0's, so p2 must buffer p1's update until p0's arrives.
  isc::FederationConfig cfg;
  mcs::SystemConfig sc;
  sc.id = SystemId{0};
  sc.num_app_processes = 3;
  sc.protocol = anbkh_protocol();
  // Deterministic per-channel delays: use a counter-based factory.
  auto counter = std::make_shared<int>(0);
  sc.intra_delay = [counter]() -> net::DelayModelPtr {
    // Channel creation order in System::finalize: (0->1), (0->2), (1->0),
    // (1->2), (2->0), (2->1). Make 0->2 slow (index 1), others fast.
    const int index = (*counter)++;
    return std::make_unique<net::FixedDelay>(
        index == 1 ? sim::milliseconds(50) : sim::milliseconds(1));
  };
  cfg.systems.push_back(std::move(sc));
  isc::Federation fed(std::move(cfg));

  auto& sim = fed.simulator();
  fed.system(0).app(0).write(X, 1);
  // p1 reads x (sees 1 after ~1ms), then writes y=2.
  sim.at(sim::Time{} + sim::milliseconds(5), [&] {
    fed.system(0).app(1).read(X, [&](Value v) {
      ASSERT_EQ(v, 1);
      fed.system(0).app(1).write(Y, 2);
    });
  });
  // At 20ms, p2 has received p1's update (fast) but not p0's (slow):
  // it must NOT expose y=2 yet.
  Value y_at_20 = -1, x_at_20 = -1;
  sim.at(sim::Time{} + sim::milliseconds(20), [&] {
    fed.system(0).app(2).read(Y, [&](Value v) { y_at_20 = v; });
    fed.system(0).app(2).read(X, [&](Value v) { x_at_20 = v; });
  });
  Value y_at_end = -1;
  sim.at(sim::Time{} + sim::milliseconds(100), [&] {
    fed.system(0).app(2).read(Y, [&](Value v) { y_at_end = v; });
  });
  fed.run();
  EXPECT_EQ(y_at_20, kInitValue);  // buffered: causal dependency missing
  EXPECT_EQ(x_at_20, kInitValue);
  EXPECT_EQ(y_at_end, 2);

  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << res.detail;
}

TEST(Anbkh, BurstBehindAnUnreadyUpdateAppliesInArrivalOrder) {
  // Process 2 receives a burst of process 1's updates with one of process
  // 0's stuck in the middle of it, not yet ready (its predecessor arrives
  // last). The apply chain must pop ready heads, erase from the middle past
  // the stuck update, compact the consumed prefix, and apply every ready
  // update in arrival order, with pending_updates() exact throughout.
  auto cfg = test::single_system(3, anbkh_protocol());
  cfg.monitor.enabled = false;
  isc::Federation fed(std::move(cfg));
  auto& p2 = static_cast<AnbkhProcess&>(fed.system(0).mcs(2));
  auto channel_to_p2 = [&](std::uint16_t from) {
    net::Fabric& fabric = fed.fabric();
    for (std::uint32_t c = 0; c < fabric.num_channels(); ++c) {
      const net::ChannelId id{c};
      if (fabric.channel_src(id) == ProcId{SystemId{0}, from} &&
          fabric.channel_dst(id) == ProcId{SystemId{0}, 2})
        return id;
    }
    ADD_FAILURE() << "no channel " << from << " -> 2";
    return net::ChannelId{};
  };

  struct Arrival {
    std::uint16_t writer;
    VectorClock clock;
  };
  std::vector<Arrival> arrivals;
  for (std::uint64_t k = 1; k <= 4; ++k) arrivals.push_back({1, {0, k, 0}});
  arrivals.push_back({0, {2, 0, 0}});  // waits for {1, 0, 0}
  for (std::uint64_t k = 5; k <= 8; ++k) arrivals.push_back({1, {0, k, 0}});
  arrivals.push_back({0, {1, 0, 0}});

  // Every arrival is an event at the same instant: the first starts the
  // apply chain, whose continuations queue behind the rest of the burst.
  std::size_t arrived = 0;
  auto& sim = fed.simulator();
  for (const Arrival& a : arrivals) {
    const net::ChannelId ch = channel_to_p2(a.writer);
    sim.post([&, ch, a] {
      auto msg = std::make_unique<TimestampedUpdate>();
      msg->var = X;
      msg->value = static_cast<Value>(100 * a.writer + a.clock[a.writer]);
      msg->clock = a.clock;
      msg->writer = a.writer;
      p2.on_message(ch, std::move(msg));
      ++arrived;
    });
  }

  std::vector<Value> applied;
  while (sim.step()) {
    const Value v = p2.replica_value(X);
    if (applied.empty() ? v != kInitValue : v != applied.back())
      applied.push_back(v);
    ASSERT_EQ(p2.pending_updates(), arrived - applied.size());
  }
  const std::vector<Value> expected = {101, 102, 103, 104, 105, 106,
                                       107, 108, 1,   2};
  EXPECT_EQ(applied, expected);
  EXPECT_EQ(p2.pending_updates(), 0u);
  EXPECT_EQ(p2.clock(), (VectorClock{2, 8, 0}));
}

// The one update message without a payload is a causal marker: ANBKH's
// apply chain consumes it in causal order, advancing the writer's clock
// entry without touching the replica or reporting an apply.
TEST(Anbkh, CausalMarkerAdvancesClockOnly) {
  auto cfg = test::single_system(2, anbkh_protocol());
  cfg.monitor.enabled = false;
  isc::Federation fed(std::move(cfg));
  auto& p1 = static_cast<AnbkhProcess&>(fed.system(0).mcs(1));
  net::Fabric& fabric = fed.fabric();
  net::ChannelId from_p0{};
  for (std::uint32_t c = 0; c < fabric.num_channels(); ++c) {
    if (fabric.channel_src(net::ChannelId{c}) == ProcId{SystemId{0}, 0})
      from_p0 = net::ChannelId{c};
  }
  auto send = [&](std::uint64_t tick, bool has_value) {
    auto msg = std::make_unique<TimestampedUpdate>();
    msg->var = X;
    msg->value = static_cast<Value>(tick);
    msg->has_value = has_value;
    msg->clock = VectorClock{tick, 0};
    msg->writer = 0;
    p1.on_message(from_p0, std::move(msg));
  };
  send(1, false);
  fed.run();
  EXPECT_EQ(p1.clock(), (VectorClock{1, 0}));
  EXPECT_EQ(p1.replica_value(X), kInitValue);
  send(3, true);  // held back until the marker of tick 2
  fed.run();
  EXPECT_EQ(p1.pending_updates(), 1u);
  send(2, false);
  fed.run();
  EXPECT_EQ(p1.clock(), (VectorClock{3, 0}));
  EXPECT_EQ(p1.replica_value(X), 3);
  EXPECT_EQ(p1.pending_updates(), 0u);
}

TEST(Anbkh, SatisfiesCausalUpdatingTrait) {
  auto fed = isc::Federation(test::single_system(2, anbkh_protocol()));
  EXPECT_TRUE(fed.system(0).mcs(0).satisfies_causal_updating());
  EXPECT_STREQ(fed.system(0).mcs(0).protocol_name(), "anbkh");
}

// Property: random workloads over one ANBKH system are causal (in fact they
// should be causal for every seed; the checker must never fire).
class AnbkhRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnbkhRandom, RandomWorkloadIsCausal) {
  isc::FederationConfig cfg = test::single_system(4, anbkh_protocol(),
                                                  GetParam());
  cfg.systems[0].intra_delay = [seed = GetParam()]() mutable {
    return std::make_unique<net::UniformDelay>(sim::microseconds(100),
                                               sim::milliseconds(20));
  };
  isc::Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 40;
  wc.num_vars = 4;
  wc.seed = GetParam() * 31 + 1;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  for (const auto& r : runners) EXPECT_TRUE(r->done());
  auto history = fed.federation_history();
  EXPECT_EQ(history.size(), 4u * 40u);
  auto res = chk::CausalChecker{}.check(history);
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnbkhRandom,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Anbkh, ConvergenceAfterQuiescence) {
  // Convergence is guaranteed for causally ordered writes; use one writer
  // per variable so all writes to a variable are program-ordered.
  isc::Federation fed(test::single_system(4, anbkh_protocol(), 3));
  std::vector<std::unique_ptr<wl::ScriptRunner>> runners;
  for (std::uint16_t p = 0; p < 4; ++p) {
    std::vector<wl::Step> script;
    for (int i = 0; i < 30; ++i) {
      script.push_back(wl::write_step(VarId{p}, 1000 * (p + 1) + i));
    }
    runners.push_back(std::make_unique<wl::ScriptRunner>(
        fed.simulator(), fed.system(0).app(p), std::move(script),
        sim::milliseconds(0), sim::milliseconds(3), 40 + p));
    runners.back()->start();
  }
  fed.run();

  for (std::uint16_t writer = 0; writer < 4; ++writer) {
    for (std::uint16_t p = 0; p < 4; ++p) {
      auto& proc = dynamic_cast<AnbkhProcess&>(fed.system(0).mcs(p));
      EXPECT_EQ(proc.replica_value(VarId{writer}), 1000 * (writer + 1) + 29);
    }
  }
}

TEST(Anbkh, ClocksConvergeAfterQuiescence) {
  isc::Federation fed(test::single_system(3, anbkh_protocol(), 9));
  for (std::uint16_t p = 0; p < 3; ++p) {
    fed.system(0).app(p).write(VarId{p}, p + 1);
  }
  fed.run();
  auto& m0 = dynamic_cast<AnbkhProcess&>(fed.system(0).mcs(0));
  for (std::uint16_t p = 1; p < 3; ++p) {
    auto& mp = dynamic_cast<AnbkhProcess&>(fed.system(0).mcs(p));
    EXPECT_EQ(mp.clock(), m0.clock());
    EXPECT_EQ(mp.pending_updates(), 0u);
  }
}

}  // namespace
}  // namespace cim::proto
