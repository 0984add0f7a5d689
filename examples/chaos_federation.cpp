// Scripted chaos demo (docs/FAULTS.md): two causal systems interconnected
// over a *bad* link — 20% loss, reordering jitter — behind the ARQ reliable
// transport, hit by a seeded storm of partitions, loss bursts, and
// IS-process crash/restart windows sampled with make_chaos_plan.
//
// The run prints the storm, then shows that the interconnected system shrugs
// it off: every pair delivered exactly once, the causal checker passes, and
// the faults.* / net.retx.* metrics account for the damage absorbed.
//
//   chaos_federation [seed]        default seed 7; same seed, same storm
//   chaos_federation 7 --trace t.jsonl   also dump the structured trace
//   chaos_federation 7 --metrics m.json  also dump the metrics snapshot
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "checker/causal_checker.h"
#include "interconnect/federation.h"
#include "net/reliable_transport.h"
#include "obs/metrics.h"
#include "protocols/anbkh.h"
#include "sim/faults.h"
#include "workload/generator.h"

using namespace cim;

int main(int argc, char** argv) {
  std::uint64_t seed = 7;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      seed = std::strtoull(argv[i], nullptr, 10);
    }
  }

  isc::FederationConfig cfg;
  cfg.seed = seed;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{s};
    sc.num_app_processes = 3;
    // Both systems run ANBKH: its upcall discipline tolerates the deferred
    // `done` of a parked (crashed) IS-process upcall. lazy_batch applies
    // whole batches within one event and cannot (docs/FAULTS.md).
    sc.protocol = proto::anbkh_protocol();
    sc.seed = seed * 50 + s;
    cfg.systems.push_back(std::move(sc));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  link.reliable = true;        // the ARQ shield — try turning it off
  link.drop_probability = 0.2;
  link.fifo = false;
  link.delay = [] {
    return std::make_unique<net::UniformDelay>(sim::microseconds(500),
                                               sim::milliseconds(10));
  };
  cfg.links.push_back(std::move(link));

  sim::ChaosOptions chaos;
  chaos.horizon = sim::seconds(2);
  chaos.num_partitions = 1;
  chaos.partition_length = sim::milliseconds(500);
  chaos.num_bursts = 2;
  chaos.burst_drop = 0.8;
  chaos.num_crashes = 2;  // one crash/restart window per system
  chaos.num_links = cfg.links.size();
  chaos.num_systems = cfg.systems.size();
  cfg.faults = sim::make_chaos_plan(chaos, seed);
  cfg.obs.trace.enabled = !trace_path.empty();

  std::cout << "Chaos storm (seed " << seed << "):\n";
  for (const auto& p : cfg.faults.partitions) {
    std::cout << "  partition link " << p.link << "  [" << p.begin.ns / 1000000
              << "ms, " << p.end.ns / 1000000 << "ms)\n";
  }
  for (const auto& b : cfg.faults.bursts) {
    std::cout << "  burst p=" << b.drop_probability << " link " << b.link
              << "      [" << b.begin.ns / 1000000 << "ms, "
              << b.end.ns / 1000000 << "ms)\n";
  }
  for (const auto& c : cfg.faults.crashes) {
    std::cout << "  crash system " << c.system << "     ["
              << c.crash_at.ns / 1000000 << "ms, " << c.restart_at.ns / 1000000
              << "ms)\n";
  }

  isc::Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 80;
  wc.write_fraction = 0.6;
  wc.think_max = sim::milliseconds(25);
  wc.seed = seed + 13;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  isc::IsProcess& a = fed.interconnector().shared_isp(0);
  isc::IsProcess& b = fed.interconnector().shared_isp(1);
  auto* ta = fed.interconnector().links()[0].a.arq;
  auto* tb = fed.interconnector().links()[0].b.arq;
  const auto res = chk::CausalChecker{}.check(fed.federation_history());

  std::cout << "\nAfter the storm (" << fed.simulator().now().ns / 1000000
            << "ms of virtual time):\n"
            << "  pairs S0->S1        " << a.pairs_sent() << " sent, "
            << b.pairs_received() << " received\n"
            << "  pairs S1->S0        " << b.pairs_sent() << " sent, "
            << a.pairs_received() << " received\n"
            << "  retransmissions     " << ta->retransmits() + tb->retransmits()
            << " (timeouts " << ta->timeouts() + tb->timeouts() << ")\n"
            << "  dups suppressed     "
            << ta->dups_suppressed() + tb->dups_suppressed() << "\n"
            << "  crash windows       S0 " << a.crash_count() << ", S1 "
            << b.crash_count() << "\n"
            << "  causal (S^T)        " << (res.ok() ? "yes" : "VIOLATED")
            << "\n";

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    fed.observability().trace().write_jsonl(out);
    std::cout << "  trace               " << trace_path << "\n";
    if (fed.observability().trace().dropped() > 0) {
      std::cerr << "chaos_federation: warning: trace ring dropped "
                << fed.observability().trace().dropped()
                << " events; raise cfg.obs.trace.capacity for a full trace\n";
    }
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    obs::write_json(out, fed.metrics_snapshot());
    std::cout << "  metrics             " << metrics_path << "\n";
  }

  const bool lossless = a.pairs_sent() == b.pairs_received() &&
                        b.pairs_sent() == a.pairs_received();
  std::cout << "  exactly-once pairs  " << (lossless ? "yes" : "NO") << "\n";
  return res.ok() && lossless ? 0 : 1;
}
