// Consistency report card: run the same cross-system workload on every
// protocol pairing and grade the resulting execution against the whole
// hierarchy of models this repository can check:
//
//   CM   — causal memory (the paper's model; Theorem 1 guarantees "yes")
//   CCv  — causal convergence (requires arbitration none of these protocols
//          implement, so contended runs score "no")
//   SEQ  — sequential consistency (exhaustive reference checker; small runs)
//   RYW / MR / MW — session guarantees (all should hold): no witness of the
//          online monitor's replay carries the guarantee's label
//
// This demonstrates the *position* of the interconnected system in the
// consistency spectrum: exactly causal — no more, no less.
#include <algorithm>
#include <iostream>
#include <vector>

#include "checker/causal_checker.h"
#include "checker/online_monitor.h"
#include "checker/search_checker.h"
#include "interconnect/federation.h"
#include "obs/table.h"
#include "protocols/anbkh.h"
#include "protocols/aw_seq.h"
#include "protocols/lazy_batch.h"
#include "protocols/tob_causal.h"
#include "workload/generator.h"

using namespace cim;

namespace {

struct Protocol {
  const char* name;
  mcs::ProtocolFactory factory;
};

std::vector<Protocol> protocols() {
  proto::LazyBatchConfig lc;
  lc.order = proto::BatchOrder::kShuffleVars;
  return {
      {"anbkh", proto::anbkh_protocol()},
      {"lazy-batch", proto::lazy_batch_protocol(lc)},
      {"aw-seq", proto::aw_seq_protocol()},
      {"tob-causal", proto::tob_causal_protocol()},
  };
}

const char* yn(bool b) { return b ? "yes" : "no"; }

}  // namespace

int main() {
  std::cout << "Consistency report card — two interconnected systems per "
               "protocol,\ncontended workload (concurrent writers on shared "
               "variables)\n\n";

  obs::Table table(
      {"protocol", "CM (causal)", "CCv", "sequential", "RYW", "MR", "MW"});

  for (auto& p : protocols()) {
    isc::FederationConfig cfg;
    cfg.seed = 11;
    for (std::uint16_t s = 0; s < 2; ++s) {
      mcs::SystemConfig sc;
      sc.id = SystemId{s};
      sc.num_app_processes = 2;
      sc.protocol = p.factory;
      sc.seed = 90 + s;
      cfg.systems.push_back(std::move(sc));
    }
    isc::LinkSpec link;
    link.system_a = 0;
    link.system_b = 1;
    link.delay = [] {
      return std::make_unique<net::FixedDelay>(sim::milliseconds(25));
    };
    cfg.links.push_back(std::move(link));
    isc::Federation fed(std::move(cfg));
    auto& sim = fed.simulator();

    // Contention recipe: concurrent writes to one variable from both
    // systems, sampled by local readers during the propagation window, plus
    // a small amount of background traffic.
    const VarId hot{0};
    fed.system(0).app(0).write(hot, 1);
    fed.system(1).app(0).write(hot, 2);
    for (int t : {5, 10, 60, 120}) {
      sim.at(sim::Time{} + sim::milliseconds(t), [&] {
        fed.system(0).app(1).read(hot);
        fed.system(1).app(1).read(hot);
      });
    }
    sim.at(sim::Time{} + sim::milliseconds(30), [&] {
      fed.system(0).app(0).write(VarId{1}, 3);
      fed.system(1).app(0).read(VarId{1});
    });
    fed.run();

    auto history = fed.federation_history();
    const bool cm = chk::CausalChecker{}.check(history, chk::Level::kCM).ok();
    const bool ccv =
        chk::CausalChecker{}.check(history, chk::Level::kCCv).ok();
    auto seq = chk::SearchChecker{}.is_sequential(history);
    const std::vector<chk::Violation> found = chk::OnlineMonitor::check(history);
    auto holds = [&found](chk::Guarantee g) {
      return std::none_of(found.begin(), found.end(),
                          [g](const chk::Violation& v) { return v.label == g; });
    };
    const bool ryw = holds(chk::Guarantee::kReadYourWrites);
    const bool mr = holds(chk::Guarantee::kMonotonicReads);
    const bool mw = holds(chk::Guarantee::kMonotonicWrites);

    table.add_row(p.name, yn(cm), yn(ccv),
                  seq.has_value() ? yn(*seq) : "undecided", yn(ryw), yn(mr),
                  yn(mw));
  }
  table.print();

  std::cout << "\nReading the card: Theorem 1 delivers CM for every protocol "
               "pairing; the\ncontended runs are neither convergent (CCv) "
               "nor sequential — interconnection\npreserves exactly causal "
               "memory, as the paper proves, while the session\nguarantees "
               "all hold (they are implied by CM).\n";
  return 0;
}
