// The paper's motivating scenario (Section 1.1): "a causal system that has
// to be implemented on two local area networks connected with a low-speed
// point-to-point link. If the causal protocol used broadcasts updates, in a
// single system there could be a large number of messages crossing the
// point-to-point link for the same variable update. [...] it would seem
// appropriate to implement one system in each of the local area networks,
// and use an IS-protocol via the link to connect the whole system."
//
// This example runs the same workload both ways and prints the traffic that
// crosses the slow link, plus end-to-end visibility latencies.
//
// Observability quickstart (docs/OBSERVABILITY.md):
//   two_lans --trace trace.jsonl     write the interconnected run's structured
//                                    trace (JSONL, one event per line);
//   two_lans --metrics metrics.json  write its metrics snapshot (cim.metrics.v1).
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "checker/causal_checker.h"
#include "interconnect/federation.h"
#include "mcs/span_feed.h"
#include "obs/metrics.h"
#include "obs/table.h"
#include "protocols/anbkh.h"
#include "workload/generator.h"

using namespace cim;

namespace {

constexpr std::uint16_t kProcsPerLan = 8;
const sim::Duration kLanDelay = sim::microseconds(200);   // fast LAN
const sim::Duration kWanDelay = sim::milliseconds(30);    // slow point-to-point

struct Result {
  std::uint64_t cross_messages = 0;
  std::uint64_t cross_bytes = 0;
  sim::Duration worst_visibility{};
  bool causal = false;
};

// One global DSM system spanning both LANs: every broadcast crosses the WAN
// once per remote MCS-process.
Result run_global() {
  isc::FederationConfig cfg;
  mcs::SystemConfig sys;
  sys.id = SystemId{0};
  sys.num_app_processes = 2 * kProcsPerLan;
  sys.protocol = proto::anbkh_protocol();
  sys.seed = 7;
  // Channels within a LAN are fast; channels between halves cross the WAN.
  auto channel_no = std::make_shared<int>(0);
  const int n = 2 * kProcsPerLan;
  sys.intra_delay = [channel_no, n]() -> net::DelayModelPtr {
    // System::finalize creates channels in (i, j) order, j != i.
    const int k = (*channel_no)++;
    const int i = k / (n - 1);
    int j = k % (n - 1);
    if (j >= i) ++j;
    const bool cross = (i < kProcsPerLan) != (j < kProcsPerLan);
    return std::make_unique<net::FixedDelay>(cross ? kWanDelay : kLanDelay);
  };
  cfg.systems.push_back(std::move(sys));
  isc::Federation fed(std::move(cfg));

  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);
  wl::UniformConfig wc;
  wc.ops_per_process = 20;
  wc.seed = 11;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  Result out;
  const auto cross = fed.fabric().stats_where([](ProcId a, ProcId b) {
    return (a.index < kProcsPerLan) != (b.index < kProcsPerLan);
  });
  out.cross_messages = cross.messages;
  out.cross_bytes = cross.bytes;
  std::vector<ProcId> targets;
  for (std::uint16_t p = 0; p < 2 * kProcsPerLan; ++p) {
    targets.push_back(ProcId{SystemId{0}, p});
  }
  out.worst_visibility =
      spans.worst_visibility(targets).value_or(sim::Duration{});
  out.causal = chk::CausalChecker{}.check(fed.federation_history()).ok();
  return out;
}

struct ObsOutputs {
  std::string trace_path;    // --trace FILE: JSONL trace of the run
  std::string metrics_path;  // --metrics FILE: cim.metrics.v1 snapshot
};

// One system per LAN, interconnected over the WAN with the IS-protocols:
// one pair message crosses per write.
Result run_interconnected(const ObsOutputs& outputs) {
  isc::FederationConfig cfg;
  cfg.obs.trace.enabled = !outputs.trace_path.empty();
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sys;
    sys.id = SystemId{s};
    sys.num_app_processes = kProcsPerLan;
    sys.protocol = proto::anbkh_protocol();
    sys.seed = 7 + s;
    sys.intra_delay = [] {
      return std::make_unique<net::FixedDelay>(kLanDelay);
    };
    cfg.systems.push_back(std::move(sys));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  link.delay = [] { return std::make_unique<net::FixedDelay>(kWanDelay); };
  cfg.links.push_back(std::move(link));
  isc::Federation fed(std::move(cfg));

  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);
  wl::UniformConfig wc;
  wc.ops_per_process = 20;
  wc.seed = 11;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  Result out;
  const auto cross = fed.fabric().cross_system_stats(SystemId{0}, SystemId{1});
  out.cross_messages = cross.messages;
  out.cross_bytes = cross.bytes;
  std::vector<ProcId> targets;
  for (std::uint16_t s = 0; s < 2; ++s) {
    for (std::uint16_t p = 0; p < kProcsPerLan; ++p) {
      targets.push_back(ProcId{SystemId{s}, p});
    }
  }
  out.worst_visibility =
      spans.worst_visibility(targets).value_or(sim::Duration{});
  out.causal = chk::CausalChecker{}.check(fed.federation_history()).ok();

  if (!outputs.trace_path.empty()) {
    std::ofstream os(outputs.trace_path);
    if (!os) {
      std::cerr << "two_lans: cannot write " << outputs.trace_path << "\n";
    } else {
      fed.observability().trace().write_jsonl(os);
      std::cout << "[trace: " << outputs.trace_path << ", "
                << fed.observability().trace().size() << " events]\n";
      if (fed.observability().trace().dropped() > 0) {
        std::cerr << "two_lans: warning: trace ring dropped "
                  << fed.observability().trace().dropped()
                  << " events; raise cfg.obs.trace.capacity for a full trace\n";
      }
    }
  }
  if (!outputs.metrics_path.empty()) {
    std::ofstream os(outputs.metrics_path);
    if (!os) {
      std::cerr << "two_lans: cannot write " << outputs.metrics_path << "\n";
    } else {
      obs::write_json(os, fed.metrics_snapshot());
      std::cout << "[metrics: " << outputs.metrics_path << "]\n";
    }
  }
  return out;
}

std::string ms(sim::Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(d.ns) / 1e6);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  ObsOutputs outputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      outputs.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      outputs.metrics_path = argv[++i];
    } else {
      std::cerr << "usage: two_lans [--trace FILE] [--metrics FILE]\n";
      return 2;
    }
  }

  std::cout << "Two LANs (" << kProcsPerLan << " processes each) joined by a "
            << "slow point-to-point link\nworkload: 20 ops/process, 50% "
               "writes\n\n";

  const Result global = run_global();
  const Result interconnected = run_interconnected(outputs);

  obs::Table table({"architecture", "WAN messages", "WAN bytes",
                    "worst visibility", "causal"});
  table.add_row("one global DSM system", global.cross_messages,
                global.cross_bytes, ms(global.worst_visibility),
                global.causal ? "yes" : "NO");
  table.add_row("two systems + IS-protocol", interconnected.cross_messages,
                interconnected.cross_bytes, ms(interconnected.worst_visibility),
                interconnected.causal ? "yes" : "NO");
  table.print();

  const double factor = static_cast<double>(global.cross_messages) /
                        static_cast<double>(interconnected.cross_messages);
  std::cout << "\nThe interconnection sends " << factor
            << "x fewer messages over the slow link (paper: n/2 vs 1 per "
               "write)\nwhile both architectures remain causal.\n";
  return 0;
}
