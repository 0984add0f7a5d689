// Experiment E3 (Section 6, latency).
//
// Paper: "if we have m systems, a system running the basic causal protocol
// has latency l, the delay of a message between two IS-processes is d, and
// we interconnect the systems in a star fashion, the worst case latency is
// 3l + 2d."
//
// With per-link IS-processes (the paper's construction) the measurement
// reproduces the formula exactly: leaf -> (l) -> ISP -> (d) -> hub ISP write
// -> (l) -> hub's other ISP -> (d) -> leaf ISP write -> (l) -> reader.
// The shared-IS-process variant forwards pairs without re-traversing the hub
// memory and achieves 2l + 2d — an implementation ablation the table also
// reports.
#include <iostream>

#include "bench_report.h"
#include "bench_util.h"
#include "mcs/span_feed.h"
#include "obs/table.h"

namespace {

using namespace cim;

sim::Duration measure_worst_latency(std::size_t m, sim::Duration l,
                                    sim::Duration d, isc::IspMode mode) {
  bench::FedParams params;
  params.num_systems = m;
  params.procs_per_system = 2;
  params.topology = m >= 2 ? bench::Topology::kStar : bench::Topology::kChain;
  params.intra_delay = l;
  params.link_delay = d;
  params.isp_mode = mode;
  isc::Federation fed(bench::make_config(params));

  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);

  // A single write in a leaf system (the worst-placed writer of a star).
  const std::size_t writer_system = m >= 2 ? 1 : 0;
  fed.system(writer_system).app(0).write(VarId{0}, 1);
  fed.run();

  auto worst = spans.worst_visibility(bench::all_app_procs(fed));
  return worst.value_or(sim::Duration{-1});
}

sim::Duration expected(std::size_t m, sim::Duration l, sim::Duration d) {
  if (m == 1) return l;
  if (m == 2) return 2 * l + d;  // no intermediate system
  return 3 * l + 2 * d;          // star: through the hub
}

}  // namespace

int main() {
  std::cout << "E3 — worst-case write visibility latency, star topology "
               "(Section 6)\n"
            << "paper: single system l; star of m>=3 systems 3l + 2d\n\n";

  bench::JsonReport report("latency");
  obs::Table table({"m", "l", "d", "paper", "measured (per-link ISP)",
                    "measured (shared ISP)"});
  struct Cfg {
    std::int64_t l_ms, d_ms;
  };
  for (Cfg c : {Cfg{1, 10}, Cfg{5, 5}, Cfg{2, 20}}) {
    for (std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{5}, std::size_t{8}}) {
      const sim::Duration l = sim::milliseconds(c.l_ms);
      const sim::Duration d = sim::milliseconds(c.d_ms);
      const auto per_link =
          measure_worst_latency(m, l, d, isc::IspMode::kPerLink);
      const auto shared =
          measure_worst_latency(m, l, d, isc::IspMode::kSharedPerSystem);
      table.add_row(m, bench::ms_string(l), bench::ms_string(d),
                    bench::ms_string(expected(m, l, d)),
                    bench::ms_string(per_link), bench::ms_string(shared));
      const std::string m_str = std::to_string(m);
      report
          .row("m" + m_str + "_l" + std::to_string(c.l_ms) + "ms_d" +
               std::to_string(c.d_ms) + "ms")
          .field("m", m)
          .field_ns("l", l)
          .field_ns("d", d)
          .field_ns("paper_worst", expected(m, l, d))
          .field_ns("measured_per_link", per_link)
          .field_ns("measured_shared", shared);
    }
  }
  table.print();

  std::cout << "\nPer-link IS-processes reproduce the paper's 3l+2d exactly; "
               "a shared IS-process\nper system forwards pairs directly and "
               "saves one intra-system traversal (2l+2d).\n";
  return 0;
}
