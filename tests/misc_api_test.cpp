// Miscellaneous public-API coverage: observer fan-out, federation lifecycle,
// IS-process activation rules, message metadata.
#include <gtest/gtest.h>

#include "helpers.h"
#include "interconnect/pair_msg.h"
#include "protocols/update_msg.h"

namespace cim {
namespace {

using test::X;

struct CountingObserver final : mcs::MemoryObserver {
  int issued = 0;
  int applied = 0;
  void on_update_issued(ProcId, VarId, Value, WriteId, sim::Time) override {
    ++issued;
  }
  void on_update_applied(ProcId, VarId, Value, WriteId, sim::Time) override {
    ++applied;
  }
};

TEST(ObserverMux, FansOutToAllRegisteredObservers) {
  isc::Federation fed(test::single_system(3, proto::anbkh_protocol()));
  CountingObserver a, b;
  fed.add_observer(&a);
  fed.add_observer(&b);
  fed.system(0).app(0).write(X, 1);
  fed.run();
  EXPECT_EQ(a.issued, 1);
  EXPECT_EQ(a.applied, 2);  // two remote replicas (the writer pre-applies)
  EXPECT_EQ(b.issued, a.issued);
  EXPECT_EQ(b.applied, a.applied);
}

TEST(ObserverMux, ObserversAddedMidRunSeeOnlyLaterEvents) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  fed.system(0).app(0).write(X, 1);
  fed.run();
  CountingObserver late;
  fed.add_observer(&late);
  fed.system(0).app(0).write(X, 2);
  fed.run();
  EXPECT_EQ(late.issued, 1);
}

TEST(Federation, RunUntilAdvancesPartially) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  fed.system(0).app(0).write(X, 1);  // remote apply due at +1ms
  fed.run_until(sim::Time{} + sim::microseconds(500));
  auto& remote = dynamic_cast<proto::AnbkhProcess&>(fed.system(0).mcs(1));
  EXPECT_EQ(remote.replica_value(X), kInitValue);
  fed.run();
  EXPECT_EQ(remote.replica_value(X), 1);
}

TEST(Federation, RequiresAtLeastOneSystem) {
  isc::FederationConfig cfg;
  EXPECT_THROW(isc::Federation{std::move(cfg)}, InvariantViolation);
}

TEST(Federation, SystemHistoryIncludesIspOps) {
  isc::Federation fed(test::two_systems(2, proto::anbkh_protocol(),
                                        proto::anbkh_protocol()));
  fed.system(0).app(0).write(X, 1);
  fed.run();
  // α^1 contains the ISP's propagated write plus its upcall reads; α^T does
  // not contain any ISP op.
  auto s1 = fed.system_history(1);
  bool has_isp_write = false;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    if (s1.is_isp(i) && s1.kind(i) == chk::OpKind::kWrite) {
      has_isp_write = true;
    }
  }
  EXPECT_TRUE(has_isp_write);
  const auto federation_view = fed.federation_history();
  for (std::size_t i = 0; i < federation_view.size(); ++i) {
    EXPECT_FALSE(federation_view.is_isp(i));
  }
}

TEST(IsProcess, DoubleActivationThrows) {
  isc::Federation fed(test::two_systems(2, proto::anbkh_protocol(),
                                        proto::anbkh_protocol()));
  EXPECT_THROW(
      fed.interconnector().shared_isp(0).activate(isc::IsProtocolChoice::kAuto),
      InvariantViolation);  // already activated by build()
}

TEST(IsProcess, MustAttachToIspSlot) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  EXPECT_THROW(isc::IsProcess(fed.system(0).app(0), fed.simulator()),
               InvariantViolation);
}

TEST(Messages, WireSizesAreOrderedSensibly) {
  proto::TimestampedUpdate full;
  full.clock = VectorClock(4);
  proto::TimestampedUpdate marker;
  marker.clock = VectorClock(4);
  marker.has_value = false;
  isc::PairMsg pair;
  // The IS pair is protocol-agnostic and smallest; a causal marker drops
  // the variable and value; clocked updates grow with the system size.
  EXPECT_LT(pair.wire_size(), full.wire_size());
  EXPECT_EQ(full.wire_size() - marker.wire_size(), 4u + 8u);
  proto::TimestampedUpdate big;
  big.clock = VectorClock(16);
  EXPECT_GT(big.wire_size(), full.wire_size());
  EXPECT_STREQ(pair.type_name(), "is.pair");
  EXPECT_STREQ(full.type_name(), "vc.update");
  EXPECT_STREQ(marker.type_name(), "vc.marker");
}

TEST(ScriptRunner, EmptyScriptFinishesImmediately) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  wl::ScriptRunner runner(fed.simulator(), fed.system(0).app(0), {},
                          sim::milliseconds(1), sim::milliseconds(1), 1);
  bool finished = false;
  runner.on_finished = [&] { finished = true; };
  runner.start();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(runner.done());
}

TEST(ScriptRunner, DoubleStartThrows) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  wl::ScriptRunner runner(fed.simulator(), fed.system(0).app(0),
                          {wl::read_step(X)}, sim::milliseconds(1),
                          sim::milliseconds(1), 1);
  runner.start();
  EXPECT_THROW(runner.start(), InvariantViolation);
}

}  // namespace
}  // namespace cim
