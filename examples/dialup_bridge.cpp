// Dial-up bridge (Section 1.1): two offices share a causal memory but their
// link is only brought up during scheduled sync windows. Writes made while
// the link is down queue at the IS-processes and drain, in causal order,
// when the next window opens — "this makes the protocol practical even with
// dial-up connections."
//
// Timeline (simulated minutes compressed to milliseconds):
//   windows:  [100ms,110ms) and [300ms,310ms), link up forever after 600ms
//   09:00 (t=20ms)  office A files report_q1 = 1
//   09:10 (t=40ms)  office A files report_q2 = 2
//   10:00 (t=150ms) office B annotates report_q1 (after first sync)
//   ...
#include <iomanip>
#include <iostream>

#include "checker/causal_checker.h"
#include "interconnect/federation.h"
#include "protocols/anbkh.h"

using namespace cim;

namespace {

std::string at(sim::Time t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "[t=%6.1fms]",
                static_cast<double>(t.ns) / 1e6);
  return buf;
}

}  // namespace

int main() {
  const VarId report_q1{0}, report_q2{1}, annotation{2};

  isc::FederationConfig cfg;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sys;
    sys.id = SystemId{s};
    sys.num_app_processes = 2;
    sys.protocol = proto::anbkh_protocol();
    sys.seed = 3 + s;
    cfg.systems.push_back(std::move(sys));
  }
  isc::LinkSpec link;
  link.system_a = 0;  // office A
  link.system_b = 1;  // office B
  link.delay = [] { return std::make_unique<net::FixedDelay>(sim::milliseconds(2)); };
  link.availability = [] {
    std::vector<net::Windows::Window> windows{
        {sim::Time{} + sim::milliseconds(100), sim::Time{} + sim::milliseconds(110)},
        {sim::Time{} + sim::milliseconds(300), sim::Time{} + sim::milliseconds(310)},
    };
    return std::make_unique<net::Windows>(windows,
                                          sim::Time{} + sim::milliseconds(600));
  };
  cfg.links.push_back(std::move(link));
  isc::Federation fed(std::move(cfg));
  auto& sim = fed.simulator();

  std::cout << "Dial-up bridge between office A (S0) and office B (S1)\n"
            << "link windows: [100,110)ms, [300,310)ms, always up after "
               "600ms\n\n";

  // Office A files two reports while the link is down.
  sim.at(sim::Time{} + sim::milliseconds(20), [&] {
    fed.system(0).app(0).write(report_q1, 1, [&] {
      std::cout << at(sim.now()) << " office A filed report_q1 (link DOWN — "
                   "update queued at isp^A)\n";
    });
  });
  sim.at(sim::Time{} + sim::milliseconds(40), [&] {
    fed.system(0).app(0).write(report_q2, 2, [&] {
      std::cout << at(sim.now()) << " office A filed report_q2 (link DOWN)\n";
    });
  });

  // Office B checks before and after the first window.
  auto check_b = [&](const char* label) {
    fed.system(1).app(0).read(report_q1, [&, label](Value v) {
      std::cout << at(sim.now()) << " office B reads report_q1 = " << v
                << "  (" << label << ")\n";
    });
  };
  sim.at(sim::Time{} + sim::milliseconds(90), [&] { check_b("before sync"); });
  sim.at(sim::Time{} + sim::milliseconds(150), [&] {
    check_b("after first sync window");
    // B annotates, causally after A's report.
    fed.system(1).app(1).write(annotation, 3, [&] {
      std::cout << at(sim.now()) << " office B wrote an annotation "
                   "(link DOWN again — queued at isp^B)\n";
    });
  });

  // Office A sees the annotation only after the second window.
  sim.at(sim::Time{} + sim::milliseconds(290), [&] {
    fed.system(0).app(1).read(annotation, [&](Value v) {
      std::cout << at(sim.now()) << " office A reads annotation = " << v
                << "  (before second window)\n";
    });
  });
  sim.at(sim::Time{} + sim::milliseconds(350), [&] {
    fed.system(0).app(1).read(annotation, [&](Value v) {
      std::cout << at(sim.now()) << " office A reads annotation = " << v
                << "  (after second window)\n";
    });
  });

  fed.run();

  auto verdict = chk::CausalChecker{}.check(fed.federation_history());
  std::cout << "\nchecker verdict on the whole computation: "
            << (verdict.ok() ? "causal" : verdict.detail) << "\n"
            << "pairs queued+delivered A->B: "
            << fed.interconnector().shared_isp(1).pairs_received()
            << ", B->A: "
            << fed.interconnector().shared_isp(0).pairs_received() << "\n";
  return verdict.ok() ? 0 : 1;
}
