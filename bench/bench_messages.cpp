// Experiment E1 (Section 6, network traffic).
//
// Paper: "in a global DSM system with n MCS-processes each write operation
// generates n-1 messages. With our interconnection protocols [...]
// generalizing these results for m systems, the number of messages for the
// interconnected system becomes n + m - 1."
//
// This bench runs write-only workloads over a global system and over m
// interconnected systems (shared IS-process per system, chain topology) and
// reports measured messages per write against the paper's formulas.
#include <iostream>

#include "bench_report.h"
#include "bench_util.h"
#include "obs/table.h"

namespace {

using namespace cim;

double measure_messages_per_write(std::size_t m, std::uint16_t n_total,
                                  std::uint64_t seed) {
  bench::FedParams params;
  params.num_systems = m;
  params.procs_per_system = static_cast<std::uint16_t>(n_total / m);
  params.topology = bench::Topology::kChain;
  params.seed = seed;
  isc::Federation fed(bench::make_config(params));

  // Write-only workload: every message in the run is attributable to writes.
  wl::UniformConfig wc;
  wc.ops_per_process = 10;
  wc.write_fraction = 1.0;
  wc.num_vars = 4;
  wc.seed = seed * 7 + 1;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  const std::uint64_t total_writes =
      static_cast<std::uint64_t>(n_total) * wc.ops_per_process;
  return static_cast<double>(fed.fabric().total_messages()) /
         static_cast<double>(total_writes);
}

}  // namespace

int main() {
  std::cout << "E1 — messages per write operation (Section 6)\n"
            << "paper: global n-1; m interconnected systems n+m-1\n\n";

  bench::JsonReport report("messages");
  obs::Table table({"n (app procs)", "m (systems)", "paper", "measured",
                    "match"});
  for (std::uint16_t n : {8, 16, 24, 48}) {
    for (std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                          std::size_t{8}}) {
      if (n % m != 0) continue;
      const double expected =
          m == 1 ? n - 1.0 : static_cast<double>(n) + static_cast<double>(m) - 1.0;
      const double measured = measure_messages_per_write(m, n, 42);
      table.add_row(n, m, expected, measured,
                    measured == expected ? "yes" : "NO");
      const std::string n_str = std::to_string(n);
      report.row("n" + n_str + "_m" + std::to_string(m))
          .field("n", n)
          .field("m", m)
          .field("paper_msgs_per_write", expected)
          .field("measured_msgs_per_write", measured)
          .field("match", measured == expected);
    }
  }
  table.print();

  std::cout << "\nNote: with m systems the interconnection adds m MCS-"
               "processes (one per IS-process)\nand m-1 link crossings per "
               "write, giving n + m - 1 total.\n";
  return 0;
}
