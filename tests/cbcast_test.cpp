// Tests: the one vector-clock causal broadcast (protocols/update_msg.h) under
// each protocol built on it, and the causal DSM over causal broadcast of the
// paper's Section 1.2 (cbcast-dsm).
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "checker/causal_checker.h"
#include "helpers.h"
#include "protocols/anbkh.h"

namespace cim::proto {
namespace {

using test::X;

// ------------------------------------- the broadcast, on a jittery system

struct BroadcastCase {
  const char* name;
  mcs::ProtocolFactory (*make)(std::uint16_t procs);
};

const BroadcastCase kBroadcasts[] = {
    {"anbkh", [](std::uint16_t) { return anbkh_protocol(); }},
    {"partial_rep",
     [](std::uint16_t procs) {
       return partial_rep_protocol([](std::uint16_t, VarId) { return true; },
                                   procs);
     }},
    {"cbcast_dsm", [](std::uint16_t) { return cbcast_dsm_protocol(); }},
};

void PrintTo(const BroadcastCase& c, std::ostream* os) { *os << c.name; }

// Records, per process, the values of variable 0 its apply pipeline applied,
// and relays: the process that applies value k writes k+1, so process k
// writes k+1 for k = 1..3.
struct Relay final : mcs::MemoryObserver {
  isc::Federation* fed = nullptr;
  std::map<std::uint16_t, std::vector<Value>> applied;

  void on_update_applied(ProcId replica, VarId var, Value value, WriteId,
                         sim::Time) override {
    if (var != VarId{0}) return;
    applied[replica.index].push_back(value);
    // The write leaves the apply chain first.
    if (value == replica.index && value < 4) {
      fed->simulator().post([this, p = replica.index, value] {
        fed->system(0).app(p).write(VarId{0}, value + 1);
      });
    }
  }
};

class CausalRelay : public ::testing::TestWithParam<
                        std::tuple<BroadcastCase, std::uint64_t>> {};

// Property: applies respect the causal order of writes. Value 1 is written
// by process 0; whichever process applies value k writes k+1 (a relay chain
// through processes 1..3), so values 1..4 form a causal chain, and every
// replica must apply the three it did not write in ascending order, over
// jittery channels.
TEST_P(CausalRelay, ChainedWritesApplyInOrderEverywhere) {
  const auto& [protocol, seed] = GetParam();
  isc::FederationConfig cfg = test::single_system(4, protocol.make(4), seed);
  cfg.systems[0].intra_delay = [] {
    return std::make_unique<net::UniformDelay>(sim::microseconds(10),
                                               sim::milliseconds(40));
  };
  isc::Federation fed(std::move(cfg));
  Relay relay;
  relay.fed = &fed;
  fed.add_observer(&relay);
  fed.system(0).app(0).write(VarId{0}, 1);
  fed.run();

  for (std::uint16_t p = 0; p < 4; ++p) {
    // Process p wrote value p+1; cbcast-dsm also applies it at the writer.
    std::vector<Value> remote;
    for (Value v : relay.applied[p]) {
      if (v != p + 1) remote.push_back(v);
    }
    std::vector<Value> expected = {1, 2, 3, 4};
    expected.erase(expected.begin() + p);
    EXPECT_EQ(remote, expected) << "process " << p;
    EXPECT_EQ(static_cast<VcReplicaProcess&>(fed.system(0).mcs(p))
                  .pending_updates(),
              0u);
  }
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
}

std::string relay_name(
    const ::testing::TestParamInfo<CausalRelay::ParamType>& info) {
  return std::string(std::get<0>(info.param).name) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CausalRelay,
    ::testing::Combine(::testing::ValuesIn(kBroadcasts),
                       ::testing::Range<std::uint64_t>(1, 7)),
    relay_name);

// ------------------------------------------------------------- cbcast-dsm

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

// What sets cbcast-dsm apart from ANBKH: the writer's own update is
// delivered back to it, through the apply chain, before the write is
// acknowledged — so the apply pipeline reports it, which ANBKH's local
// pre-apply never does.
TEST(CbcastDsm, OwnWriteAppliesAtSelfDelivery) {
  struct Applied final : mcs::MemoryObserver {
    std::vector<ProcId> replicas;
    void on_update_applied(ProcId replica, VarId, Value, WriteId,
                           sim::Time) override {
      replicas.push_back(replica);
    }
  };
  for (const bool dsm : {true, false}) {
    isc::Federation fed(test::single_system(
        2, dsm ? cbcast_dsm_protocol() : anbkh_protocol()));
    Applied applied;
    fed.add_observer(&applied);
    Value at_ack = -1;
    fed.system(0).app(0).write(
        X, 7, [&] { at_ack = fed.system(0).mcs(0).replica_value(X); });
    fed.run();
    EXPECT_EQ(at_ack, 7) << "dsm " << dsm;
    const std::vector<ProcId> writer_first = {ProcId{SystemId{0}, 0},
                                              ProcId{SystemId{0}, 1}};
    const std::vector<ProcId> peer_only = {ProcId{SystemId{0}, 1}};
    EXPECT_EQ(applied.replicas, dsm ? writer_first : peer_only);
  }
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
