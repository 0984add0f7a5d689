// Experiment E8 (Corollary 1 at scale): trees of m systems.
//
// Two tables:
//  * traffic — the n+m-1 messages-per-write formula holds for every tree
//    shape (it only depends on n and m, not on the topology);
//  * latency — the worst-case visibility generalizes the star's 3l+2d to
//    (h+1)l + h·d, where h is the hop-eccentricity of the writer's system in
//    the tree (per-link IS-processes, the paper's construction).
#include <algorithm>
#include <iostream>

#include "bench_report.h"
#include "bench_util.h"
#include "checker/causal_checker.h"
#include "mcs/span_feed.h"
#include "obs/table.h"

namespace {

using namespace cim;

double messages_per_write(bench::Topology topo, std::size_t m,
                          std::uint16_t procs) {
  bench::FedParams params;
  params.num_systems = m;
  params.procs_per_system = procs;
  params.topology = topo;
  isc::Federation fed(bench::make_config(params));

  wl::UniformConfig wc;
  wc.ops_per_process = 8;
  wc.write_fraction = 1.0;
  wc.seed = 23;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  const double writes = static_cast<double>(m) * procs * 8;
  return static_cast<double>(fed.fabric().total_messages()) / writes;
}

sim::Duration worst_latency(bench::Topology topo, std::size_t m,
                            sim::Duration l, sim::Duration d) {
  bench::FedParams params;
  params.num_systems = m;
  params.procs_per_system = 2;
  params.topology = topo;
  params.intra_delay = l;
  params.link_delay = d;
  params.isp_mode = isc::IspMode::kPerLink;
  isc::Federation fed(bench::make_config(params));

  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);
  fed.system(0).app(0).write(VarId{0}, 1);
  fed.run();
  return spans.worst_visibility(bench::all_app_procs(fed))
      .value_or(sim::Duration{-1});
}

// Engine throughput on a steady-state tree federation: the perf-regression
// rows of the harness (scripts/run_benches.sh). Virtual-time results are
// deterministic for a fixed seed; wall_s and events_per_sec measure the host.
struct PerfResult {
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  sim::Duration p99_visibility{0};
};

bench::FedParams perf_params(bench::Topology topo, std::size_t m,
                             std::uint16_t procs, std::uint64_t seed) {
  bench::FedParams params;
  params.num_systems = m;
  params.procs_per_system = procs;
  params.topology = topo;
  params.intra_delay = sim::microseconds(100);
  params.link_delay = sim::milliseconds(1);
  params.seed = seed;
  return params;
}

PerfResult perf_run(bench::Topology topo, std::size_t m, std::uint16_t procs,
                    std::uint32_t ops_per_process, std::uint64_t seed) {
  wl::UniformConfig wc;
  wc.ops_per_process = ops_per_process;
  wc.write_fraction = 0.5;
  wc.seed = seed;
  PerfResult r;
  r.ops = static_cast<std::uint64_t>(m) * procs * ops_per_process;

  // Timed run: no observers attached, so wall_s measures the engine
  // (simulate -> send -> deliver -> apply), not the stats machinery.
  {
    isc::Federation fed(
        bench::make_config(perf_params(topo, m, procs, seed)));
    auto runners = wl::install_uniform(fed, wc);
    const bench::WallTimer timer;
    fed.run();
    r.wall_s = timer.seconds();
    r.events = fed.simulator().events_fired();
  }

  // Untimed re-run with the visibility tracker for the p99 row (virtual-time,
  // deterministic — identical seed reproduces the same event sequence).
  {
    isc::Federation fed(
        bench::make_config(perf_params(topo, m, procs, seed)));
    obs::SpanIndex spans;
    mcs::SpanFeed feed(spans);
    fed.add_observer(&feed);
    auto runners = wl::install_uniform(fed, wc);
    fed.run();
    std::vector<sim::Duration> lat =
        spans.visibilities(bench::all_app_procs(fed));
    if (!lat.empty()) {
      std::sort(lat.begin(), lat.end(),
                [](sim::Duration a, sim::Duration b) { return a.ns < b.ns; });
      r.p99_visibility = lat[(lat.size() * 99) / 100];
    }
  }
  return r;
}

}  // namespace

int main() {
  bench::JsonReport report("tree_scale");
  const std::uint64_t kPerfSeed = 97;
  report.meta("seed", kPerfSeed);

  std::cout << "E8 — scaling Corollary 1: trees of m interconnected systems\n\n";

  const std::uint16_t procs = 2;
  std::cout << "Traffic (shared IS-processes): paper formula n + m - 1\n";
  obs::Table traffic({"topology", "m", "n", "paper", "measured"});
  for (bench::Topology topo : {bench::Topology::kChain, bench::Topology::kStar,
                               bench::Topology::kBinaryTree}) {
    for (std::size_t m : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                          std::size_t{16}}) {
      const std::size_t n = m * procs;
      const double measured = messages_per_write(topo, m, procs);
      traffic.add_row(bench::to_string(topo), m, n,
                      static_cast<double>(n + m - 1), measured);
      report
          .row(std::string("traffic.") + bench::to_string(topo) + "_m" +
               std::to_string(m))
          .field("paper", static_cast<double>(n + m - 1))
          .field("measured", measured);
    }
  }
  traffic.print();

  const sim::Duration l = sim::milliseconds(1);
  const sim::Duration d = sim::milliseconds(10);
  std::cout << "\nLatency (per-link IS-processes, writer in system 0, l="
            << bench::ms_string(l) << ", d=" << bench::ms_string(d)
            << "): formula (h+1)l + h*d\n";
  obs::Table latency(
      {"topology", "m", "h (ecc. of S0)", "paper", "measured"});
  for (bench::Topology topo : {bench::Topology::kChain, bench::Topology::kStar,
                               bench::Topology::kBinaryTree}) {
    for (std::size_t m : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      const auto edges = bench::edges_of(topo, m);
      const std::size_t h = bench::eccentricity(edges, m, 0);
      const sim::Duration expect =
          static_cast<std::int64_t>(h + 1) * l + static_cast<std::int64_t>(h) * d;
      const sim::Duration measured = worst_latency(topo, m, l, d);
      latency.add_row(bench::to_string(topo), m, h, bench::ms_string(expect),
                      bench::ms_string(measured));
      report
          .row(std::string("latency.") + bench::to_string(topo) + "_m" +
               std::to_string(m))
          .field_ns("paper", expect)
          .field_ns("measured", measured);
    }
  }
  latency.print();

  std::cout << "\nThe star keeps h (and latency) constant as m grows — the "
               "paper's recommended\nshape — while the chain's latency grows "
               "linearly with m.\n";

  std::cout << "\nEngine throughput (events/sec, wall clock — the "
               "perf-regression rows)\n";
  obs::Table perf({"topology", "m", "events", "wall s", "events/s", "ops/s",
                   "p99 vis"});
  for (bench::Topology topo :
       {bench::Topology::kStar, bench::Topology::kBinaryTree}) {
    for (std::size_t m : {std::size_t{4}, std::size_t{8}}) {
      const PerfResult r = perf_run(topo, m, /*procs=*/4,
                                    /*ops_per_process=*/200, kPerfSeed);
      const double eps = static_cast<double>(r.events) / r.wall_s;
      const double ops = static_cast<double>(r.ops) / r.wall_s;
      perf.add_row(bench::to_string(topo), m, r.events, r.wall_s, eps, ops,
                   bench::ms_string(r.p99_visibility));
      report
          .row(std::string("perf.") + bench::to_string(topo) + "_m" +
               std::to_string(m))
          .field("events", r.events)
          .field("ops", r.ops)
          .field("wall_s", r.wall_s)
          .field("events_per_sec", eps)
          .field("ops_per_sec", ops)
          .field_ns("p99_visibility", r.p99_visibility);
    }
  }
  perf.print();
  return 0;
}
