// Unit/integration tests: the partial-replication causal protocol [8].
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "checker/causal_checker.h"
#include "helpers.h"
#include "protocols/anbkh.h"

namespace cim::proto {
namespace {

using test::X;
using test::Y;

// Interest layout used throughout: process i holds variable i (private) and
// variable 9 (shared by everyone).
bool own_plus_shared(std::uint16_t index, VarId var) {
  return var.value == index || var.value == 9;
}

isc::FederationConfig partial_system(std::uint16_t procs,
                                     std::uint64_t seed = 1) {
  return test::single_system(
      procs, partial_rep_protocol(own_plus_shared, procs), seed);
}

TEST(PartialRep, SharedVariablePropagatesToAll) {
  isc::Federation fed(partial_system(3));
  fed.system(0).app(0).write(VarId{9}, 7);
  fed.run();
  for (std::uint16_t p = 0; p < 3; ++p) {
    Value got = -1;
    fed.system(0).app(p).read(VarId{9}, [&](Value v) { got = v; });
    fed.run();
    EXPECT_EQ(got, 7) << "process " << p;
  }
}

TEST(PartialRep, PrivateVariableStoredOnlyAtHolder) {
  isc::Federation fed(partial_system(3));
  fed.system(0).app(1).write(VarId{1}, 5);
  fed.run();
  auto& p0 = dynamic_cast<AnbkhProcess&>(fed.system(0).mcs(0));
  auto& p1 = dynamic_cast<AnbkhProcess&>(fed.system(0).mcs(1));
  auto& p2 = dynamic_cast<AnbkhProcess&>(fed.system(0).mcs(2));
  EXPECT_EQ(p1.replica_value(VarId{1}), 5);
  EXPECT_EQ(p0.replica_value(VarId{1}), kInitValue);  // marker only
  EXPECT_EQ(p2.replica_value(VarId{1}), kInitValue);
  // But causal knowledge advanced everywhere.
  EXPECT_EQ(p0.clock(), p1.clock());
  EXPECT_EQ(p2.clock(), p1.clock());
}

TEST(PartialRep, ReadOutsideInterestSetThrows) {
  isc::Federation fed(partial_system(3));
  EXPECT_THROW(fed.system(0).app(0).read(VarId{2}), InvariantViolation);
}

TEST(PartialRep, WriteOutsideInterestSetThrows) {
  isc::Federation fed(partial_system(3));
  EXPECT_THROW(fed.system(0).app(0).write(VarId{2}, 1), InvariantViolation);
}

TEST(PartialRep, MarkersPreserveCausalDependencies) {
  // p0 writes its private x0, then the shared x9 (program order). p2 must
  // not expose x9's value before having processed x0's *marker* — readiness
  // is exactly ANBKH's.
  isc::FederationConfig cfg = partial_system(3);
  auto counter = std::make_shared<int>(0);
  cfg.systems[0].intra_delay = [counter]() -> net::DelayModelPtr {
    // Channel order: (0->1),(0->2),(1->0),(1->2),(2->0),(2->1).
    // Make 0->2 slow so p2 receives the later write's update first... both
    // writes travel the same channel (FIFO), so instead make p0's channel
    // jitter-free and verify ordering semantics via the checker.
    (void)counter;
    return std::make_unique<net::UniformDelay>(sim::microseconds(100),
                                               sim::milliseconds(10));
  };
  isc::Federation fed(std::move(cfg));
  fed.system(0).app(0).write(VarId{0}, 1);
  fed.system(0).app(0).write(VarId{9}, 2);
  fed.run();
  auto& p2 = dynamic_cast<AnbkhProcess&>(fed.system(0).mcs(2));
  EXPECT_EQ(p2.replica_value(VarId{9}), 2);
  EXPECT_EQ(p2.clock()[0], 2u);  // both of p0's writes accounted for
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << res.detail;
}

TEST(PartialRep, MarkerBytesSmallerThanUpdates) {
  isc::Federation fed(partial_system(2));
  // Private write: one marker to the peer.
  fed.system(0).app(0).write(VarId{0}, 1);
  fed.run();
  const auto after_marker = fed.fabric().class_stats(net::LinkClass::kIntraSystem);
  // Shared write: one full update to the peer.
  fed.system(0).app(0).write(VarId{9}, 2);
  fed.run();
  const auto after_update = fed.fabric().class_stats(net::LinkClass::kIntraSystem);
  const auto marker_bytes = after_marker.bytes;
  const auto update_bytes = after_update.bytes - after_marker.bytes;
  EXPECT_LT(marker_bytes, update_bytes);
  EXPECT_EQ(after_update.messages, 2u);
}

// Random workloads restricted to interest sets stay causal.
class PartialRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartialRandom, InterestRespectingWorkloadIsCausal) {
  isc::FederationConfig cfg = partial_system(4, GetParam());
  cfg.systems[0].intra_delay = [] {
    return std::make_unique<net::UniformDelay>(sim::microseconds(100),
                                               sim::milliseconds(15));
  };
  isc::Federation fed(std::move(cfg));

  Rng rng(GetParam() * 5 + 3);
  Value next = 1;
  std::vector<std::unique_ptr<wl::ScriptRunner>> runners;
  for (std::uint16_t p = 0; p < 4; ++p) {
    std::vector<wl::Step> script;
    for (int i = 0; i < 30; ++i) {
      const VarId var = rng.chance(0.5) ? VarId{p} : VarId{9};
      if (rng.chance(0.5)) {
        script.push_back(wl::write_step(var, next++));
      } else {
        script.push_back(wl::read_step(var));
      }
    }
    runners.push_back(std::make_unique<wl::ScriptRunner>(
        fed.simulator(), fed.system(0).app(p), std::move(script),
        sim::milliseconds(0), sim::milliseconds(5), GetParam() * 10 + p));
    runners.back()->start();
  }
  fed.run();
  for (const auto& r : runners) ASSERT_TRUE(r->done());
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartialRandom,
                         ::testing::Range<std::uint64_t>(1, 11));

// Interconnection: the IS-process slot replicates everything even though
// application processes are partial, and the union is causal.
TEST(PartialRep, InterconnectsWithFullReplicationSystem) {
  isc::FederationConfig cfg;
  cfg.seed = 4;
  {
    mcs::SystemConfig sc;
    sc.id = SystemId{0};
    sc.num_app_processes = 3;
    sc.protocol = partial_rep_protocol(own_plus_shared, 3);
    sc.seed = 40;
    cfg.systems.push_back(std::move(sc));
  }
  {
    mcs::SystemConfig sc;
    sc.id = SystemId{1};
    sc.num_app_processes = 2;
    sc.protocol = proto::anbkh_protocol();
    sc.seed = 41;
    cfg.systems.push_back(std::move(sc));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  cfg.links.push_back(link);
  isc::Federation fed(std::move(cfg));

  // partial-rep satisfies Causal Updating -> IS-protocol 1.
  EXPECT_FALSE(fed.interconnector().shared_isp(0).pre_reads_enabled());

  // S1 writes the shared variable and a "private" one of S0's p1; both
  // propagate into S0 via the ISP (which holds everything).
  fed.system(1).app(0).write(VarId{9}, 100);
  fed.system(1).app(0).write(VarId{1}, 101);
  fed.run();
  Value shared = -1, private1 = -1;
  fed.system(0).app(2).read(VarId{9}, [&](Value v) { shared = v; });
  fed.system(0).app(1).read(VarId{1}, [&](Value v) { private1 = v; });
  fed.run();
  EXPECT_EQ(shared, 100);
  EXPECT_EQ(private1, 101);

  // And writes in S0 propagate out.
  fed.system(0).app(0).write(VarId{9}, 102);
  fed.run();
  Value in_s1 = -1;
  fed.system(1).app(1).read(VarId{9}, [&](Value v) { in_s1 = v; });
  fed.run();
  EXPECT_EQ(in_s1, 102);

  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << res.detail;
}

// Full interest sends no marker: partial-rep is then ANBKH, event for
// event, on the same seeded run.
TEST(PartialRep, FullInterestTraceIsAnbkhTrace) {
  auto trace_of = [](mcs::ProtocolFactory protocol) {
    isc::FederationConfig cfg = test::single_system(3, std::move(protocol), 2);
    cfg.obs.trace.enabled = true;
    cfg.systems[0].intra_delay = [] {
      return std::make_unique<net::UniformDelay>(sim::microseconds(100),
                                                 sim::milliseconds(15));
    };
    isc::Federation fed(std::move(cfg));
    wl::UniformConfig wc;
    wc.ops_per_process = 40;
    wc.num_vars = 4;
    wc.seed = 11;
    auto runners = wl::install_uniform(fed, wc);
    fed.run();
    std::ostringstream out;
    fed.observability().trace().write_jsonl(out);
    return out.str();
  };
  const std::string partial = trace_of(partial_rep_protocol_full());
  EXPECT_NE(partial.find("update_applied"), std::string::npos);
  EXPECT_EQ(partial.find("vc.marker"), std::string::npos);
  EXPECT_EQ(partial, trace_of(anbkh_protocol()));

  isc::Federation fed(test::single_system(3, partial_rep_protocol_full(), 2));
  EXPECT_STREQ(fed.system(0).mcs(0).protocol_name(), "partial-rep");
  EXPECT_TRUE(fed.system(0).mcs(0).satisfies_causal_updating());
}

}  // namespace
}  // namespace cim::proto
