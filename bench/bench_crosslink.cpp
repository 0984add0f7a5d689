// Experiment E2 (Section 6, the cross-link bottleneck).
//
// Paper: "if we have two systems, each one with n/2 processes and in
// different networks, in the global DSM system n/2 messages have to cross
// from one network to the other for each write operation, which can generate
// a bottleneck. With our protocol only one message has to cross."
//
// Global: one DSM system of n processes whose first half sits in LAN A and
// second half in LAN B; we count broadcast messages crossing the halves.
// Interconnected: two systems of n/2 processes joined by one IS link.
#include <iostream>

#include "bench_report.h"
#include "bench_util.h"
#include "obs/table.h"

namespace {

using namespace cim;

double global_cross_per_write(std::uint16_t n, std::uint64_t seed) {
  bench::FedParams params;
  params.num_systems = 1;
  params.procs_per_system = n;
  params.seed = seed;
  isc::Federation fed(bench::make_config(params));

  wl::UniformConfig wc;
  wc.ops_per_process = 10;
  wc.write_fraction = 1.0;
  wc.seed = seed + 3;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  const std::uint16_t half = n / 2;
  const auto cross = fed.fabric().stats_where([half](ProcId src, ProcId dst) {
    return (src.index < half) != (dst.index < half);
  });
  const double writes = static_cast<double>(n) * 10;
  return static_cast<double>(cross.messages) / writes;
}

double interconnected_cross_per_write(std::uint16_t n, std::uint64_t seed) {
  bench::FedParams params;
  params.num_systems = 2;
  params.procs_per_system = static_cast<std::uint16_t>(n / 2);
  params.seed = seed;
  isc::Federation fed(bench::make_config(params));

  wl::UniformConfig wc;
  wc.ops_per_process = 10;
  wc.write_fraction = 1.0;
  wc.seed = seed + 3;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  const auto cross = fed.fabric().cross_system_stats(SystemId{0}, SystemId{1});
  const double writes = static_cast<double>(n) * 10;
  return static_cast<double>(cross.messages) / writes;
}

}  // namespace

int main() {
  std::cout << "E2 — messages crossing the inter-network link per write "
               "(Section 6)\n"
            << "paper: global DSM n/2; interconnected systems 1\n\n";

  bench::JsonReport report("crosslink");
  obs::Table table({"n", "paper global (n/2)", "measured global",
                    "paper IS (1)", "measured IS"});
  for (std::uint16_t n : {4, 8, 16, 32, 64}) {
    const double global = global_cross_per_write(n, 5);
    const double interconnected = interconnected_cross_per_write(n, 5);
    table.add_row(n, n / 2.0, global, 1.0, interconnected);
    const std::string n_str = std::to_string(n);
    report.row("n" + n_str)
        .field("n", n)
        .field("paper_global_cross_per_write", n / 2.0)
        .field("measured_global_cross_per_write", global)
        .field("paper_is_cross_per_write", 1.0)
        .field("measured_is_cross_per_write", interconnected);
  }
  table.print();

  std::cout << "\nThe bottleneck grows linearly with n in the global system "
               "but stays constant\nunder the IS-protocols — the paper's "
               "motivation for consistency islands.\n";
  return 0;
}
