// Experiment E6 as a deterministic test: the Section-3 counterexample.
//
// System S0 runs the lazy-batch protocol (violates Causal Updating) with
// adversarial kReverseVars ordering; S1 runs ANBKH. A process of S0 writes
// w(x)1 and then w(y)2 (causally ordered). The IS-process's MCS replica
// applies them inverted, so:
//
//  * with IS-protocol 1 *forced* (pre-update reads disabled), the pairs
//    cross the link as ⟨y,2⟩ then ⟨x,1⟩; a reader in S1 observes y=2 while x
//    is still at its initial value — exactly the violation the paper
//    describes ("some process l in S^k could issue first r(x)u and then
//    r(x)v, which violates the causality of the system S^T");
//
//  * with the automatic choice (IS-protocol 2, since lazy-batch does not
//    satisfy Property 1), the Pre_Propagate_out reads force causal apply
//    order (Lemma 1) and the interconnected system stays causal.
#include <gtest/gtest.h>

#include "checker/causal_checker.h"
#include "checker/online_monitor.h"
#include "helpers.h"

namespace cim::isc {
namespace {

using test::counterexample_config;
using test::Probe;
using test::run_counterexample;
using test::X;
using test::Y;

TEST(Counterexample, Protocol1AloneViolatesCausality) {
  FederationConfig cfg = counterexample_config(IsProtocolChoice::kForceProtocol1);
  cfg.monitor.enabled = true;  // the online monitor must convict this live
  cfg.obs.trace.enabled = true;  // ...and emit its verdicts as chk events
  Federation fed(std::move(cfg));
  ASSERT_FALSE(fed.interconnector().shared_isp(0).pre_reads_enabled());

  Probe probe;
  run_counterexample(fed, probe);

  // The stale read happened...
  EXPECT_EQ(probe.x_when_y_seen, kInitValue);
  // ...and the online monitor flagged it *during* the run: the stale r(x)
  // is the checker's WriteCOInitRead on x (w(x)1 ⇝ w(y)2 ⇝ r(y)2 ⇝ r(x)0),
  // emitted as a `chk`/`violation` trace event and on the
  // checker.violations counter.
  ASSERT_NE(fed.monitor(), nullptr);
  EXPECT_GT(fed.monitor()->violation_count(), 0u);
  bool init_read = false;
  for (const chk::Violation& v : fed.monitor()->violations()) {
    if (v.pattern == chk::BadPattern::kWriteCOInitRead && v.var == X &&
        v.w2.origin() == ProcId{SystemId{0}, 0})
      init_read = true;
  }
  EXPECT_TRUE(init_read) << "expected a WriteCOInitRead violation on x";
  EXPECT_GT(fed.observability().trace().category_count(obs::TraceCategory::kChk),
            0u);
  const obs::MetricsSnapshot snap = fed.metrics_snapshot();
  const obs::MetricsSnapshot::Entry* mv = snap.find("checker.violations");
  ASSERT_NE(mv, nullptr);
  EXPECT_GT(mv->value, 0);
  // ...the ISP's replica really was updated out of causal order...
  auto& isp_mcs = dynamic_cast<proto::LazyBatchProcess&>(
      fed.system(0).mcs(fed.system(0).num_app_processes()));
  EXPECT_GE(isp_mcs.scrambled_batches(), 1u);
  // ...and the checker convicts the interconnected computation.
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.pattern, chk::BadPattern::kWriteCOInitRead) << res.detail;

  // Each individual system is still causal — the damage is only global,
  // which is exactly why interconnection needs the stronger protocol.
  EXPECT_TRUE(chk::CausalChecker{}.check(fed.system_history(0)).ok());
  EXPECT_TRUE(chk::CausalChecker{}.check(fed.system_history(1)).ok());
}

TEST(Counterexample, Protocol2RestoresCausality) {
  FederationConfig cfg = counterexample_config(IsProtocolChoice::kAuto);
  cfg.monitor.enabled = true;
  Federation fed(std::move(cfg));
  // Auto selects IS-protocol 2 because lazy-batch lacks Causal Updating.
  ASSERT_TRUE(fed.interconnector().shared_isp(0).pre_reads_enabled());

  Probe probe;
  run_counterexample(fed, probe);

  // The pre-read forced causal apply order: x was already visible.
  EXPECT_EQ(probe.x_when_y_seen, 1);
  // The same monitor stays silent on the repaired run.
  ASSERT_NE(fed.monitor(), nullptr);
  EXPECT_EQ(fed.monitor()->violation_count(), 0u);
  EXPECT_GT(fed.monitor()->events_seen(), 0u);
  auto& isp_mcs = dynamic_cast<proto::LazyBatchProcess&>(
      fed.system(0).mcs(fed.system(0).num_app_processes()));
  EXPECT_EQ(isp_mcs.scrambled_batches(), 0u);

  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << res.detail;
}

TEST(Counterexample, ForcedProtocol2OnCausalUpdatingSystemIsHarmless) {
  // Running the stronger protocol on an ANBKH system is wasteful but safe.
  FederationConfig cfg = test::two_systems(2, proto::anbkh_protocol(),
                                           proto::anbkh_protocol(), 7);
  cfg.links[0].choice_a = IsProtocolChoice::kForceProtocol2;
  cfg.links[0].choice_b = IsProtocolChoice::kForceProtocol2;
  Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 25;
  wc.seed = 99;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << res.detail;
}

// Statistical version: across random seeds with shuffled batches, forced
// protocol 1 frequently violates causality while protocol 2 never does.
class CounterexampleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CounterexampleSweep, Protocol2NeverViolates) {
  proto::LazyBatchConfig lc;
  lc.batch_interval = sim::milliseconds(15);
  lc.order = proto::BatchOrder::kShuffleVars;
  FederationConfig cfg = test::two_systems(
      3, proto::lazy_batch_protocol(lc), proto::anbkh_protocol(), GetParam());
  cfg.links[0].delay = [] {
    return std::make_unique<net::UniformDelay>(sim::milliseconds(1),
                                               sim::milliseconds(40));
  };
  Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 30;
  wc.num_vars = 5;
  wc.seed = GetParam() * 3 + 11;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterexampleSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace cim::isc
