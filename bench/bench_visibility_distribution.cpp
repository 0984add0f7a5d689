// Supporting experiment: visibility-latency *distribution* under jitter.
//
// The Section-6 analysis gives worst-case bounds (l, 3l+2d); real links
// jitter. This bench runs the star interconnection with uniformly jittered
// delays (intra in [l/2, l], link in [d/2, d]) and reports the distribution
// of per-write visibility latency across all replicas, against the
// worst-case bound computed from the maxima.
#include <iostream>

#include "bench_report.h"
#include "bench_util.h"
#include "mcs/span_feed.h"
#include "obs/summary.h"
#include "obs/table.h"

namespace {

using namespace cim;

obs::DurationSummary run(std::size_t m, sim::Duration l, sim::Duration d,
                         std::uint64_t seed) {
  isc::FederationConfig cfg;
  cfg.seed = seed;
  cfg.isp_mode = isc::IspMode::kPerLink;
  for (std::size_t s = 0; s < m; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{static_cast<std::uint16_t>(s)};
    sc.num_app_processes = 2;
    sc.protocol = proto::anbkh_protocol();
    sc.seed = seed * 100 + s;
    sc.intra_delay = [l] {
      return std::make_unique<net::UniformDelay>(sim::Duration{l.ns / 2}, l);
    };
    cfg.systems.push_back(std::move(sc));
  }
  for (auto [a, b] : bench::edges_of(bench::Topology::kStar, m)) {
    isc::LinkSpec link;
    link.system_a = a;
    link.system_b = b;
    link.delay = [d] {
      return std::make_unique<net::UniformDelay>(sim::Duration{d.ns / 2}, d);
    };
    cfg.links.push_back(std::move(link));
  }
  isc::Federation fed(std::move(cfg));

  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);

  wl::UniformConfig wc;
  wc.ops_per_process = 25;
  wc.write_fraction = 1.0;
  wc.num_vars = 4;
  wc.think_max = sim::milliseconds(30);
  wc.seed = seed * 3 + 2;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  return obs::summarize(spans.visibilities(bench::all_app_procs(fed)));
}

}  // namespace

int main() {
  std::cout << "Visibility-latency distribution, star of m systems, jittered "
               "delays\nintra in [l/2, l], link in [d/2, d]; paper worst case "
               "3l + 2d (per-link ISPs)\n\n";

  bench::JsonReport report("visibility_distribution");
  const sim::Duration l = sim::milliseconds(2);
  const sim::Duration d = sim::milliseconds(10);
  obs::Table table({"m", "writes", "p50", "p90", "p99", "max",
                    "bound 3l+2d", "within bound"});
  for (std::size_t m : {std::size_t{2}, std::size_t{3}, std::size_t{5},
                        std::size_t{8}}) {
    const auto s = run(m, l, d, 17);
    const sim::Duration bound = 3 * l + 2 * d;
    table.add_row(m, s.count, bench::ms_string(s.p50), bench::ms_string(s.p90),
                  bench::ms_string(s.p99), bench::ms_string(s.max),
                  bench::ms_string(bound), s.max <= bound ? "yes" : "NO");
    const std::string m_str = std::to_string(m);
    report.row("m" + m_str)
        .field("m", m)
        .field("samples", static_cast<std::int64_t>(s.count))
        .field_ns("p50", s.p50)
        .field_ns("p90", s.p90)
        .field_ns("p99", s.p99)
        .field_ns("max", s.max)
        .field_ns("bound", bound)
        .field("within_bound", s.max <= bound);
  }
  table.print();

  std::cout << "\nTypical visibility sits well below the worst case: only "
               "writes that cross the\nfull leaf-hub-leaf path at maximum "
               "jitter approach 3l + 2d.\n";
  return 0;
}
