// Experiment E6 (Section 3 / Lemma 1 ablation): why the pre-update read
// exists.
//
// System S0 runs the lazy-batch protocol, which does NOT satisfy the Causal
// Updating Property: its replica application order may invert the causal
// order across variables. We interconnect it with an ANBKH system and
// compare:
//
//  * IS-protocol 1 forced (no Pre_Propagate_out): pairs can cross the link
//    out of causal order — with an adversarial reader the checker convicts
//    most executions;
//  * IS-protocol 2 (automatic choice): the pre-update read makes every
//    intermediate replica state observable, forcing causal application order
//    (Lemma 1) — no execution is ever convicted.
//
// The workload is the paper's own counterexample, repeated: a process of S0
// writes x then y (causally ordered); a scanner in S1 keeps reading y and
// then x, catching any window in which y's value arrived before x's.
//
// Every run also carries the online monitor, which sees each write issued
// at its origin and so must convict exactly the runs the checker convicts
// at kCC; the bench exits 1 on any run where the two disagree.
#include <functional>
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "checker/causal_checker.h"
#include "obs/table.h"

namespace {

using namespace cim;

struct Outcome {
  std::size_t violations = 0;          // runs convicted by the checker
  std::size_t monitor_convicted = 0;   // runs the online monitor convicted
  std::size_t disagreements = 0;       // runs where monitor != checker kCC
  std::uint64_t scrambled_batches = 0; // inversions at isp^0's MCS-process
};

Outcome sweep(isc::IsProtocolChoice choice, std::uint64_t seeds) {
  Outcome out;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    proto::LazyBatchConfig lc;
    lc.batch_interval = sim::milliseconds(15);
    lc.order = proto::BatchOrder::kReverseVars;

    isc::FederationConfig cfg;
    cfg.seed = seed;
    cfg.monitor.enabled = true;
    for (std::uint16_t s = 0; s < 2; ++s) {
      mcs::SystemConfig sc;
      sc.id = SystemId{s};
      sc.num_app_processes = 2;
      sc.protocol = s == 0 ? proto::lazy_batch_protocol(lc)
                           : proto::anbkh_protocol();
      sc.seed = seed * 100 + s;
      cfg.systems.push_back(std::move(sc));
    }
    isc::LinkSpec link;
    link.system_a = 0;
    link.system_b = 1;
    link.choice_a = choice;
    // Jittered link: separates the two pairs of an inverted batch so the
    // inversion is observable remotely (FIFO still holds).
    link.delay = [] {
      return std::make_unique<net::UniformDelay>(sim::milliseconds(1),
                                                 sim::milliseconds(40));
    };
    cfg.links.push_back(std::move(link));
    isc::Federation fed(std::move(cfg));
    auto& sim = fed.simulator();

    // 12 rounds of the Section-3 counterexample: w(x)v then w(y)u, 3ms
    // apart (both land in one 15ms batch at isp^0's replica).
    const int kRounds = 12;
    const VarId x{0}, y{1};
    for (int r = 0; r < kRounds; ++r) {
      sim.at(sim::Time{} + sim::milliseconds(60 * r),
             [&fed, x, r] { fed.system(0).app(0).write(x, 2 * r + 1); });
      sim.at(sim::Time{} + sim::milliseconds(60 * r + 3),
             [&fed, y, r] { fed.system(0).app(0).write(y, 2 * r + 2); });
    }
    // Scanner in S1: read y then x every millisecond for the whole run.
    auto scan = std::make_shared<std::function<void()>>();
    auto* reader = &fed.system(1).app(0);
    const sim::Time end = sim::Time{} + sim::milliseconds(60 * kRounds + 100);
    *scan = [scan, reader, &sim, x, y, end] {
      reader->read(y);
      reader->read(x);
      if (sim.now() < end) {
        sim.after(sim::milliseconds(1), [scan] { (*scan)(); });
      }
    };
    (*scan)();
    fed.run();
    *scan = nullptr;  // break the closure's self-ownership cycle

    const chk::History history = fed.federation_history();
    auto res = chk::CausalChecker{}.check(history);
    if (!res.ok()) ++out.violations;
    // The monitor saw every write issued at its origin, so its live verdict
    // must be the checker's kCC verdict on α^T.
    const bool convicted = fed.monitor()->violation_count() > 0;
    if (convicted) ++out.monitor_convicted;
    if (convicted == chk::CausalChecker{}.check(history, chk::Level::kCC).ok()) {
      std::cout << "seed " << seed << ": monitor "
                << (convicted ? "convicted" : "silent")
                << " but the checker at kCC disagrees\n";
      ++out.disagreements;
    }
    auto& isp_mcs = dynamic_cast<proto::LazyBatchProcess&>(
        fed.system(0).mcs(fed.system(0).num_app_processes()));
    out.scrambled_batches += isp_mcs.scrambled_batches();
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "E6 — ablation of the Pre_Propagate_out task (Fig. 2)\n"
            << "S0 = lazy-batch (no Causal Updating, inverted applies), "
               "S1 = ANBKH\nworkload: repeated Section-3 counterexample "
               "(w(x)v then w(y)u; remote scanner)\n\n";

  const std::uint64_t kSeeds = 20;
  const Outcome p1 = sweep(isc::IsProtocolChoice::kForceProtocol1, kSeeds);
  const Outcome p2 = sweep(isc::IsProtocolChoice::kAuto, kSeeds);

  obs::Table table({"IS-protocol at S0", "runs", "causality violations",
                    "monitor convicted", "scrambled batches at isp^0"});
  table.add_row("protocol 1 (forced, no pre-read)", kSeeds, p1.violations,
                p1.monitor_convicted, p1.scrambled_batches);
  table.add_row("protocol 2 (auto: pre-read on)", kSeeds, p2.violations,
                p2.monitor_convicted, p2.scrambled_batches);
  table.print();

  std::cout << "\nWithout the pre-update read the IS-process propagates "
               "causally ordered writes out\nof order and S^T stops being "
               "causal; with it, Lemma 1's observational forcing makes\nthe "
               "MCS apply (hence propagate) in causal order, and no violation "
               "ever occurs.\n";
  if (p1.disagreements + p2.disagreements > 0) {
    std::cout << "\nFAIL: the online monitor and the checker (kCC on the "
                 "federation history) disagree on "
              << p1.disagreements + p2.disagreements << " run(s)\n";
    return 1;
  }
  return p2.violations == 0 ? 0 : 1;
}
