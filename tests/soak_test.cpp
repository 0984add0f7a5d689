// Soak tests: large mixed federations exercising every subsystem at once —
// six protocols, tree topologies, per-link and shared IS-processes, link
// jitter, and dial-up availability — always ending in a full checker pass.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "checker/causal_checker.h"
#include "checker/history.h"
#include "helpers.h"
#include "mcs/span_feed.h"
#include "protocols/anbkh.h"

namespace cim::isc {
namespace {

mcs::ProtocolFactory nth_protocol(std::size_t i, std::uint16_t procs) {
  switch (i % 6) {
    case 0: return proto::anbkh_protocol();
    case 1: {
      proto::LazyBatchConfig lc;
      lc.order = proto::BatchOrder::kShuffleVars;
      lc.batch_interval = sim::milliseconds(7);
      return proto::lazy_batch_protocol(lc);
    }
    case 2: return proto::aw_seq_protocol();
    case 3: return proto::tob_causal_protocol();
    case 4: return proto::cbcast_dsm_protocol();
    default:
      // Everyone shares all 6 workload variables (partial replication with
      // full app interest — exercises the marker-free fast path).
      return proto::partial_rep_protocol(
          [](std::uint16_t, VarId) { return true; }, procs);
  }
}

FederationConfig mixed_tree(std::size_t m, std::uint16_t procs,
                            std::uint64_t seed, IspMode mode) {
  FederationConfig cfg;
  cfg.seed = seed;
  cfg.isp_mode = mode;
  for (std::size_t s = 0; s < m; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{static_cast<std::uint16_t>(s)};
    sc.num_app_processes = procs;
    sc.protocol = nth_protocol(s, procs);
    sc.seed = seed * 31 + s;
    sc.intra_delay = [] {
      return std::make_unique<net::UniformDelay>(sim::microseconds(100),
                                                 sim::milliseconds(12));
    };
    cfg.systems.push_back(std::move(sc));
  }
  // Balanced binary tree.
  for (std::size_t i = 1; i < m; ++i) {
    LinkSpec link;
    link.system_a = (i - 1) / 2;
    link.system_b = i;
    link.delay = [] {
      return std::make_unique<net::UniformDelay>(sim::milliseconds(1),
                                                 sim::milliseconds(25));
    };
    cfg.links.push_back(std::move(link));
  }
  return cfg;
}

class Soak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Soak, SixSystemSixProtocolTreeIsCausal) {
  FederationConfig cfg = mixed_tree(6, 3, GetParam(), IspMode::kSharedPerSystem);
  cfg.monitor.enabled = true;
  Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 35;
  wc.num_vars = 6;
  wc.seed = GetParam() * 17 + 5;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  for (const auto& r : runners) ASSERT_TRUE(r->done());

  auto history = fed.federation_history();
  EXPECT_EQ(history.size(), 6u * 3u * 35u);
  auto res = chk::CausalChecker{}.check(history);
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
  // The online monitor saw every write's issue: its verdict is kCC's.
  EXPECT_EQ(fed.monitor()->violation_count(), 0u);
  EXPECT_TRUE(chk::CausalChecker{}.check(history, chk::Level::kCC).ok());
  for (std::size_t s = 0; s < 6; ++s) {
    auto sys_res = chk::CausalChecker{}.check(fed.system_history(s));
    EXPECT_TRUE(sys_res.ok()) << "system " << s << ": " << sys_res.detail;
  }
}

TEST_P(Soak, PerLinkIspTreeIsCausal) {
  FederationConfig cfg = mixed_tree(5, 2, GetParam(), IspMode::kPerLink);
  cfg.monitor.enabled = true;
  Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 25;
  wc.num_vars = 5;
  wc.seed = GetParam() * 23 + 9;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
  EXPECT_EQ(fed.monitor()->violation_count(), 0u);
}

TEST_P(Soak, DialupEverywhereStillDeliversAndStaysCausal) {
  FederationConfig cfg = mixed_tree(4, 2, GetParam(), IspMode::kSharedPerSystem);
  for (auto& link : cfg.links) {
    link.availability = [] {
      return std::make_unique<net::PeriodicDuty>(sim::milliseconds(80),
                                                 sim::milliseconds(15));
    };
  }
  Federation fed(std::move(cfg));
  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);

  wl::UniformConfig wc;
  wc.ops_per_process = 20;
  wc.num_vars = 4;
  wc.think_max = sim::milliseconds(12);
  wc.seed = GetParam() * 3 + 1;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  // Liveness: every write became visible at every application replica.
  std::vector<ProcId> targets;
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::uint16_t p = 0; p < 2; ++p) {
      targets.push_back(ProcId{SystemId{static_cast<std::uint16_t>(s)}, p});
    }
  }
  EXPECT_TRUE(spans.worst_visibility(targets).has_value());

  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Soak, ::testing::Range<std::uint64_t>(1, 6));

// Parity pin for the six protocols' event order: the full JSONL trace of the
// Soak tree above (seed 1) under both IS-process modes. Any change to when a
// protocol buffers, applies, upcalls or resumes its apply chain changes
// these hashes; ArqParity pins ANBKH alone.
TEST(ProtocolParity, SixProtocolTreeTraceHashIsPinned) {
  struct Pin {
    IspMode mode;
    std::size_t events;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {IspMode::kSharedPerSystem, 38280u, 0xf19ac63aa09b60d4ULL},
      {IspMode::kPerLink, 43986u, 0x2eb7c6e57d4a8ddcULL},
  };
  for (const Pin& pin : pins) {
    FederationConfig cfg = mixed_tree(6, 3, 1, pin.mode);
    cfg.obs.trace.enabled = true;
    Federation fed(std::move(cfg));
    wl::UniformConfig wc;
    wc.ops_per_process = 35;
    wc.num_vars = 6;
    wc.seed = 1 * 17 + 5;
    auto runners = wl::install_uniform(fed, wc);
    fed.run();

    ASSERT_EQ(fed.observability().trace().dropped(), 0u);
    std::ostringstream out;
    fed.observability().trace().write_jsonl(out);
    const std::string jsonl = out.str();
    std::size_t events = 0;
    for (char c : jsonl) events += c == '\n';
    EXPECT_EQ(events, pin.events);
    EXPECT_EQ(test::fnv1a(jsonl), pin.hash) << std::hex << test::fnv1a(jsonl);
  }
}

// Parity pin for the paths the tree above leaves out: partial-rep with
// interest sets that send causal markers, and lazy-batch in its kReverseVars
// and kCausal orders. A 4-system tree (partial-rep at the root, lazy-batch
// reverse and causal below it, ANBKH under the reverse one), each
// application process touching only the variables it replicates.
TEST(ProtocolParity, MarkerAndBatchOrderTreeTraceHashIsPinned) {
  constexpr std::uint16_t kProcs = 3;
  // Partial-rep: process i holds variable i and the shared variables 3..5.
  auto holds = [](std::uint16_t index, VarId var) {
    return var.value == index || var.value >= kProcs;
  };
  auto lazy = [](proto::BatchOrder order) {
    proto::LazyBatchConfig lc;
    lc.order = order;
    lc.batch_interval = sim::milliseconds(6);
    return proto::lazy_batch_protocol(lc);
  };
  struct Pin {
    IspMode mode;
    std::size_t events;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {IspMode::kSharedPerSystem, 13185u, 0x62c01a11ffd7fb88ULL},
      {IspMode::kPerLink, 14796u, 0x6ad843d702701dbbULL},
  };
  for (const Pin& pin : pins) {
    FederationConfig cfg;
    cfg.seed = 3;
    cfg.isp_mode = pin.mode;
    cfg.obs.trace.enabled = true;
    const mcs::ProtocolFactory protocols[] = {
        proto::partial_rep_protocol(holds, kProcs),
        lazy(proto::BatchOrder::kReverseVars),
        lazy(proto::BatchOrder::kCausal), proto::anbkh_protocol()};
    for (std::uint16_t s = 0; s < 4; ++s) {
      mcs::SystemConfig sc;
      sc.id = SystemId{s};
      sc.num_app_processes = kProcs;
      sc.protocol = protocols[s];
      sc.seed = 70 + s;
      sc.intra_delay = [] {
        return std::make_unique<net::UniformDelay>(sim::microseconds(100),
                                                   sim::milliseconds(12));
      };
      cfg.systems.push_back(std::move(sc));
    }
    for (const auto& [a, b] : {std::pair{0, 1}, {0, 2}, {1, 3}}) {
      LinkSpec link;
      link.system_a = a;
      link.system_b = b;
      link.delay = [] {
        return std::make_unique<net::UniformDelay>(sim::milliseconds(1),
                                                   sim::milliseconds(20));
      };
      cfg.links.push_back(std::move(link));
    }
    Federation fed(std::move(cfg));

    Rng rng(29);
    Value next = 1;
    std::vector<std::unique_ptr<wl::ScriptRunner>> runners;
    for (std::uint16_t s = 0; s < 4; ++s) {
      for (std::uint16_t p = 0; p < kProcs; ++p) {
        std::vector<wl::Step> script;
        for (int i = 0; i < 30; ++i) {
          const VarId var{static_cast<std::uint32_t>(
              s == 0 ? (rng.chance(0.4) ? p : rng.uniform(kProcs, 5))
                     : rng.uniform(0, 5))};
          script.push_back(rng.chance(0.5) ? wl::write_step(var, next++)
                                           : wl::read_step(var));
        }
        runners.push_back(std::make_unique<wl::ScriptRunner>(
            fed.simulator(), fed.system(s).app(p), std::move(script),
            sim::milliseconds(0), sim::milliseconds(4), s * 10u + p));
        runners.back()->start();
      }
    }
    fed.run();
    for (const auto& r : runners) ASSERT_TRUE(r->done());
    auto res = chk::CausalChecker{}.check(fed.federation_history());
    EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;

    ASSERT_EQ(fed.observability().trace().dropped(), 0u);
    std::ostringstream out;
    fed.observability().trace().write_jsonl(out);
    const std::string jsonl = out.str();
    // The tree really exercises the paths it pins.
    EXPECT_NE(jsonl.find("vc.marker"), std::string::npos);
    std::uint64_t scrambled = 0;
    for (std::uint16_t p = 0; p < kProcs; ++p) {
      scrambled += dynamic_cast<proto::LazyBatchProcess&>(fed.system(1).mcs(p))
                       .scrambled_batches();
    }
    EXPECT_GT(scrambled, 0u);
    std::size_t events = 0;
    for (char c : jsonl) events += c == '\n';
    EXPECT_EQ(events, pin.events);
    EXPECT_EQ(test::fnv1a(jsonl), pin.hash) << std::hex << test::fnv1a(jsonl);
  }
}

TEST(SoakBig, TwelveSystemChainLongRun) {
  FederationConfig cfg;
  cfg.seed = 99;
  for (std::uint16_t s = 0; s < 12; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{s};
    sc.num_app_processes = 2;
    sc.protocol = (s % 2 == 0) ? proto::anbkh_protocol()
                               : proto::tob_causal_protocol();
    sc.seed = 200 + s;
    cfg.systems.push_back(std::move(sc));
  }
  for (std::uint16_t s = 0; s + 1 < 12; ++s) {
    LinkSpec link;
    link.system_a = s;
    link.system_b = s + 1;
    cfg.links.push_back(link);
  }
  Federation fed(std::move(cfg));

  wl::UniformConfig wc;
  wc.ops_per_process = 30;
  wc.num_vars = 6;
  wc.seed = 404;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  for (const auto& r : runners) ASSERT_TRUE(r->done());

  auto history = fed.federation_history();
  EXPECT_EQ(history.size(), 12u * 2u * 30u);
  // CC level keeps the check fast on this 720-op history; CM is covered by
  // the smaller soaks above.
  auto res = chk::CausalChecker{}.check(history, chk::Level::kCC);
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;

  // Section-6 sanity at scale: n + m - 1 messages per write would need a
  // uniform protocol; with mixed protocols we at least check propagation:
  // the federation quiesced and every runner finished, so every write
  // crossed all 11 links exactly once in each direction it needed.
  const auto inter = fed.fabric().class_stats(net::LinkClass::kInterSystem);
  const std::uint64_t total_writes =
      chk::response_stats(history, chk::OpKind::kWrite).count;
  EXPECT_EQ(inter.messages, total_writes * 11);
}

}  // namespace
}  // namespace cim::isc
