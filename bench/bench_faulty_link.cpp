// Faulty-link ablation with and without the reliable transport
// (docs/FAULTS.md).
//
// The paper assumes the inter-IS channel is reliable FIFO. This bench sweeps
// the link's drop probability and compares a raw channel against the same
// channel behind the ARQ ReliableTransport: delivered-pair fraction,
// worst-case cross-system visibility, pair throughput, retransmission cost,
// and the checker verdict. Raw links shed pairs (and at high loss rates
// break liveness of propagation); transported links deliver every pair at
// the price of retransmissions and latency.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_report.h"
#include "bench_util.h"
#include "checker/causal_checker.h"
#include "mcs/span_feed.h"
#include "net/reliable_transport.h"
#include "obs/table.h"

namespace {

using namespace cim;

struct Outcome {
  std::uint64_t pairs_sent = 0;
  std::uint64_t pairs_received = 0;
  double delivered_fraction = 1.0;
  sim::Duration worst{-1};
  double pairs_per_sec = 0.0;  // delivered pairs per virtual second
  std::uint64_t retransmits = 0;
  bool causal = false;
};

Outcome run(double drop, bool reliable, std::uint64_t seed) {
  isc::FederationConfig cfg;
  cfg.seed = seed;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{s};
    sc.num_app_processes = 3;
    sc.protocol = proto::anbkh_protocol();
    sc.seed = seed * 50 + s;
    cfg.systems.push_back(std::move(sc));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  link.drop_probability = drop;
  link.reliable = reliable;
  link.delay = [] {
    return std::make_unique<net::UniformDelay>(sim::milliseconds(1),
                                               sim::milliseconds(8));
  };
  cfg.links.push_back(std::move(link));
  isc::Federation fed(std::move(cfg));

  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);

  wl::UniformConfig wc;
  wc.ops_per_process = 60;
  wc.think_max = sim::milliseconds(15);
  wc.seed = seed + 5;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  Outcome out;
  isc::IsProcess& a = fed.interconnector().shared_isp(0);
  isc::IsProcess& b = fed.interconnector().shared_isp(1);
  out.pairs_sent = a.pairs_sent() + b.pairs_sent();
  out.pairs_received = a.pairs_received() + b.pairs_received();
  out.delivered_fraction =
      out.pairs_sent == 0
          ? 1.0
          : static_cast<double>(out.pairs_received) /
                static_cast<double>(out.pairs_sent);
  out.worst = spans.worst_visibility(bench::all_app_procs(fed))
                  .value_or(sim::Duration{-1});
  const double seconds =
      static_cast<double>(fed.simulator().now().ns) / 1e9;
  out.pairs_per_sec =
      seconds > 0 ? static_cast<double>(out.pairs_received) / seconds : 0.0;
  if (reliable) {
    auto* ta = fed.interconnector().links()[0].a.arq;
    auto* tb = fed.interconnector().links()[0].b.arq;
    out.retransmits = ta->retransmits() + tb->retransmits();
  }
  out.causal = chk::CausalChecker{}.check(fed.federation_history()).ok();
  return out;
}

}  // namespace

int main() {
  std::cout << "Faulty inter-IS link: raw channel vs ARQ reliable transport\n"
               "2 ANBKH systems x 3 processes, uniform 1-8ms link delay\n\n";

  bench::JsonReport report("faulty_link");
  obs::Table table({"drop p", "transport", "pairs recv/sent", "delivered",
                    "worst visibility", "pairs/s", "retx", "causal"});

  for (double drop : {0.0, 0.01, 0.1, 0.3}) {
    for (bool reliable : {false, true}) {
      const Outcome o = run(drop, reliable, 11);
      char frac[32], ratio[32], rate[32];
      std::snprintf(frac, sizeof(frac), "%.1f%%", o.delivered_fraction * 100);
      std::snprintf(ratio, sizeof(ratio), "%llu/%llu",
                    static_cast<unsigned long long>(o.pairs_received),
                    static_cast<unsigned long long>(o.pairs_sent));
      std::snprintf(rate, sizeof(rate), "%.0f", o.pairs_per_sec);
      // A negative worst-visibility is the sentinel for "some write was
      // never seen at all" — the raw link lost it.
      table.add_row(drop, reliable ? "arq" : "raw", ratio, frac,
                    o.worst.ns < 0 ? std::string("never")
                                   : bench::ms_string(o.worst),
                    rate, o.retransmits, o.causal ? "yes" : "NO");

      char row_name[48];
      std::snprintf(row_name, sizeof(row_name), "drop_%g_%s", drop,
                    reliable ? "arq" : "raw");
      report.row(row_name)
          .field("drop_probability", drop)
          .field("reliable", reliable)
          .field("pairs_sent", o.pairs_sent)
          .field("pairs_received", o.pairs_received)
          .field("delivered_fraction", o.delivered_fraction)
          .field_ns("worst_visibility", o.worst)
          .field("pairs_per_sec", o.pairs_per_sec)
          .field("retransmits", o.retransmits)
          .field("causal", o.causal);
    }
  }
  table.print();

  std::cout << "\nRaw links shed pairs as loss grows (delivered < 100%: "
               "updates silently\nmissing at the peer system); the ARQ "
               "transport delivers every pair at the\ncost of retransmissions "
               "and stretched visibility latency.\n";
  return 0;
}
