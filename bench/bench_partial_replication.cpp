// Supporting experiment (paper citation [8]): partial replication trades
// payload bytes for causal markers.
//
// n processes each hold a private slice of the variable space plus a shared
// variable; the sharing fraction of the workload sweeps from all-shared
// (full-replication behaviour) to all-private. Messages per write stay n-1
// (causality still requires a marker to every peer), but bytes drop with the
// sharing fraction — the effect Raynal & Ahamad exploit.
#include <iostream>

#include "bench_util.h"
#include "checker/causal_checker.h"
#include "obs/table.h"
#include "protocols/anbkh.h"

namespace {

using namespace cim;

struct Row {
  double msgs_per_write;
  double bytes_per_write;
  bool causal;
};

Row run(double shared_fraction, bool partial, std::uint64_t seed) {
  const std::uint16_t n = 6;
  const VarId shared{100};

  isc::FederationConfig cfg;
  cfg.seed = seed;
  mcs::SystemConfig sc;
  sc.id = SystemId{0};
  sc.num_app_processes = n;
  if (partial) {
    sc.protocol = proto::partial_rep_protocol(
        [shared](std::uint16_t index, VarId var) {
          return var == shared || var.value == index;
        },
        n);
  } else {
    sc.protocol = proto::partial_rep_protocol_full();
  }
  sc.seed = seed + 7;
  cfg.systems.push_back(std::move(sc));
  isc::Federation fed(std::move(cfg));

  Rng rng(seed * 11 + 1);
  Value next = 1;
  std::uint64_t writes = 0;
  std::vector<std::unique_ptr<wl::ScriptRunner>> runners;
  for (std::uint16_t p = 0; p < n; ++p) {
    std::vector<wl::Step> script;
    for (int i = 0; i < 20; ++i) {
      const VarId var = rng.chance(shared_fraction) ? shared : VarId{p};
      script.push_back(wl::write_step(var, next++));
      ++writes;
    }
    runners.push_back(std::make_unique<wl::ScriptRunner>(
        fed.simulator(), fed.system(0).app(p), std::move(script),
        sim::milliseconds(0), sim::milliseconds(3), seed * 100 + p));
    runners.back()->start();
  }
  fed.run();

  const auto stats = fed.fabric().class_stats(net::LinkClass::kIntraSystem);
  Row row;
  row.msgs_per_write =
      static_cast<double>(stats.messages) / static_cast<double>(writes);
  row.bytes_per_write =
      static_cast<double>(stats.bytes) / static_cast<double>(writes);
  row.causal = chk::CausalChecker{}.check(fed.federation_history()).ok();
  return row;
}

}  // namespace

int main() {
  std::cout << "Partial replication (citation [8]): bytes per write vs "
               "sharing fraction\n6 processes, private slice + one shared "
               "variable, write-only workload\n\n";

  obs::Table table({"workload shared%", "replication", "msgs/write",
                    "bytes/write", "causal"});
  for (double frac : {1.0, 0.5, 0.2, 0.0}) {
    char label[16];
    std::snprintf(label, sizeof(label), "%.0f%%", frac * 100);
    const Row full = run(frac, /*partial=*/false, 3);
    const Row part = run(frac, /*partial=*/true, 3);
    table.add_row(label, "full", full.msgs_per_write, full.bytes_per_write,
                  full.causal ? "yes" : "NO");
    table.add_row(label, "partial", part.msgs_per_write, part.bytes_per_write,
                  part.causal ? "yes" : "NO");
  }
  table.print();

  std::cout << "\nMessages per write stay n-1 = 5 (every peer needs a causal "
               "marker), but private\nwrites ship no payload — bytes fall "
               "with the private fraction, as [8] exploits.\n";
  return 0;
}
