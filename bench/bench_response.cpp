// Experiment E4 (Section 6, response time).
//
// Paper: "our IS-protocols should not affect the response time a process
// observes when issuing a memory operation, since its MCS-process is not
// affected by the interconnection."
//
// We run the same workload over a global system of n processes and over two
// interconnected systems of n/2, for both protocol families, and compare
// operation response times. ANBKH responds locally (0 for reads and writes);
// Attiya-Welch reads are local and writes wait for the sequencer round-trip
// — in both cases the distribution is unchanged by the interconnection.
#include <iostream>

#include "bench_util.h"
#include "checker/history.h"
#include "obs/table.h"

namespace {

using namespace cim;

struct Row {
  chk::ResponseStats reads;
  chk::ResponseStats writes;
};

Row measure(std::size_t m, std::uint16_t n_total, mcs::ProtocolFactory proto,
            std::uint64_t seed) {
  bench::FedParams params;
  params.num_systems = m;
  params.procs_per_system = static_cast<std::uint16_t>(n_total / m);
  params.protocol = std::move(proto);
  params.seed = seed;
  isc::Federation fed(bench::make_config(params));

  wl::UniformConfig wc;
  wc.ops_per_process = 60;
  wc.write_fraction = 0.5;
  wc.seed = seed + 17;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  auto history = fed.federation_history();
  return Row{chk::response_stats(history, chk::OpKind::kRead),
             chk::response_stats(history, chk::OpKind::kWrite)};
}

std::string us(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1000.0);
  return buf;
}

}  // namespace

int main() {
  std::cout << "E4 — operation response time, global vs interconnected "
               "(Section 6)\n\n";

  obs::Table table({"protocol", "layout", "read mean", "read max",
                    "write mean", "write max"});
  const std::uint16_t n = 8;
  struct P {
    const char* name;
    mcs::ProtocolFactory (*make)();
  };
  const P protocols[] = {{"anbkh", proto::anbkh_protocol},
                         {"aw-seq", proto::aw_seq_protocol}};
  for (const P& p : protocols) {
    const Row global = measure(1, n, p.make(), 9);
    const Row split = measure(2, n, p.make(), 9);
    table.add_row(p.name, "global (1x8)", us(global.reads.mean_ns),
                  us(static_cast<double>(global.reads.max_ns)),
                  us(global.writes.mean_ns),
                  us(static_cast<double>(global.writes.max_ns)));
    table.add_row(p.name, "interconnected (2x4)", us(split.reads.mean_ns),
                  us(static_cast<double>(split.reads.max_ns)),
                  us(split.writes.mean_ns),
                  us(static_cast<double>(split.writes.max_ns)));
  }
  table.print();

  std::cout << "\nReads are local in both protocols (0); ANBKH writes ack "
               "locally (0); aw-seq writes\nwait for the sequencer round "
               "trip, which the interconnection does not lengthen.\n";
  return 0;
}
