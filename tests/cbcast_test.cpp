// Tests: the causal-broadcast substrate and the DSM layered on it.
#include <gtest/gtest.h>

#include <map>

#include "checker/causal_checker.h"
#include "helpers.h"
#include "msgpass/cbcast.h"
#include "protocols/cbcast_dsm.h"

namespace cim::mp {
namespace {

using test::X;
using test::Y;

// ----------------------------- substrate (with an in-memory jittery wire)

// Test harness: a group of members connected by simulated FIFO channels.
struct Group {
  sim::Simulator sim;
  net::Fabric fabric{sim, 33};

  struct Node : CbTransport, net::Receiver {
    Group* group = nullptr;
    std::uint16_t index = 0;
    std::unique_ptr<CbcastMember> member;
    std::vector<net::ChannelId> out;
    std::vector<std::pair<std::uint16_t, CbPayload>> delivered;

    void send_to_member(std::uint16_t m, net::MessagePtr msg) override {
      group->fabric.send(out[m], std::move(msg));
    }
    void on_message(net::ChannelId, net::MessagePtr msg) override {
      member->on_network(std::move(msg));
    }
  };
  std::vector<std::unique_ptr<Node>> nodes;

  explicit Group(std::uint16_t n, sim::Duration max_jitter = sim::milliseconds(10)) {
    for (std::uint16_t i = 0; i < n; ++i) {
      auto node = std::make_unique<Node>();
      node->group = this;
      node->index = i;
      node->member = std::make_unique<CbcastMember>(
          i, n, *node, [raw = node.get()](std::uint16_t s, const CbPayload& p) {
            raw->delivered.emplace_back(s, p);
          });
      nodes.push_back(std::move(node));
    }
    for (std::uint16_t i = 0; i < n; ++i) {
      nodes[i]->out.resize(n);
      for (std::uint16_t j = 0; j < n; ++j) {
        if (i == j) continue;
        net::ChannelConfig cc;
        cc.src = ProcId{SystemId{0}, i};
        cc.dst = ProcId{SystemId{0}, j};
        cc.receiver = nodes[j].get();
        cc.delay = std::make_unique<net::UniformDelay>(sim::microseconds(10),
                                                       max_jitter);
        nodes[i]->out[j] = fabric.add_channel(std::move(cc));
      }
    }
  }
};

TEST(Cbcast, SelfDeliveryIsImmediate) {
  Group g(3);
  g.nodes[0]->member->broadcast(CbPayload{X, 1, WriteId{}});
  ASSERT_EQ(g.nodes[0]->delivered.size(), 1u);
  EXPECT_EQ(g.nodes[0]->delivered[0].second.value, 1);
}

TEST(Cbcast, AllMembersDeliverEverything) {
  Group g(4);
  for (std::uint16_t i = 0; i < 4; ++i) {
    g.nodes[i]->member->broadcast(CbPayload{X, 10 + i, WriteId{}});
  }
  g.sim.run();
  for (auto& node : g.nodes) {
    EXPECT_EQ(node->delivered.size(), 4u);
    EXPECT_EQ(node->member->buffered(), 0u);
  }
}

// Property: deliveries respect the causal order of broadcasts. We build
// causal chains (each broadcast happens after delivering the previous one)
// and check per-node delivery order across many jitter seeds.
class CbcastCausal : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CbcastCausal, CausallyChainedBroadcastsDeliverInOrder) {
  Group g(4, sim::milliseconds(40));
  // Node 0 broadcasts value 1; whichever node delivers value k broadcasts
  // k+1 (relay chain through different nodes), up to 8.
  auto relay = [&](std::uint16_t node_idx, Value expected, Value next) {
    auto* node = g.nodes[node_idx].get();
    node->member = std::make_unique<CbcastMember>(
        node_idx, 4, *node,
        [node, &g, expected, next, node_idx](std::uint16_t s,
                                             const CbPayload& p) {
          node->delivered.emplace_back(s, p);
          if (p.value == expected && next <= 8) {
            g.nodes[node_idx]->member->broadcast(
                CbPayload{VarId{0}, next, WriteId{}});
          }
        });
  };
  relay(1, 1, 2);
  relay(2, 2, 3);
  relay(3, 3, 4);
  g.nodes[0]->member->broadcast(CbPayload{VarId{0}, 1, WriteId{}});
  g.sim.run();

  // Values 1..4 form a causal chain; every node must deliver them ascending.
  for (auto& node : g.nodes) {
    std::vector<Value> chain;
    for (auto& [s, p] : node->delivered) {
      if (p.value >= 1 && p.value <= 4) chain.push_back(p.value);
    }
    ASSERT_EQ(chain.size(), 4u) << "node " << node->index;
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(chain[i], static_cast<Value>(i + 1)) << "node " << node->index;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CbcastCausal,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace cim::mp

namespace cim::proto {
namespace {

using test::X;

TEST(CbcastDsm, BasicReadWrite) {
  isc::Federation fed(test::single_system(3, cbcast_dsm_protocol()));
  fed.system(0).app(0).write(X, 7);
  fed.run();
  Value got = -1;
  fed.system(0).app(2).read(X, [&](Value v) { got = v; });
  fed.run();
  EXPECT_EQ(got, 7);
}

TEST(CbcastDsm, Traits) {
  isc::Federation fed(test::single_system(2, cbcast_dsm_protocol()));
  EXPECT_TRUE(fed.system(0).mcs(0).satisfies_causal_updating());
  EXPECT_STREQ(fed.system(0).mcs(0).protocol_name(), "cbcast-dsm");
}

class CbcastDsmRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CbcastDsmRandom, RandomWorkloadIsCausal) {
  isc::FederationConfig cfg =
      test::single_system(4, cbcast_dsm_protocol(), GetParam());
  cfg.systems[0].intra_delay = [] {
    return std::make_unique<net::UniformDelay>(sim::microseconds(100),
                                               sim::milliseconds(15));
  };
  isc::Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 35;
  wc.num_vars = 4;
  wc.seed = GetParam() * 9 + 2;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CbcastDsmRandom,
                         ::testing::Range<std::uint64_t>(1, 9));

// The Section-1.2 punchline: a DSM built over causal message passing
// interconnects with the IS-protocols exactly like the native ones.
class CbcastDsmUnion : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CbcastDsmUnion, InterconnectsCausallyWithNativeProtocols) {
  isc::FederationConfig cfg = test::two_systems(
      3, cbcast_dsm_protocol(), proto::anbkh_protocol(), GetParam());
  isc::Federation fed(std::move(cfg));
  // Causal Updating holds -> IS-protocol 1.
  EXPECT_FALSE(fed.interconnector().shared_isp(0).pre_reads_enabled());

  wl::UniformConfig wc;
  wc.ops_per_process = 30;
  wc.num_vars = 4;
  wc.seed = GetParam() * 3 + 4;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CbcastDsmUnion,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace cim::proto
