// trace_checker — standalone consistency checking of recorded traces.
//
//   ./trace_checker <trace-file> [--cc | --cm | --ccv] [--sequential] [--sessions]
//   ./trace_checker --demo         # generate, dump, and check a live trace
//
// Trace format (see src/checker/trace_io.h): one op per line,
//   w <system> <proc> <var> <value> [invoked_ns responded_ns] [isp]
//   r <system> <proc> <var> <value> [invoked_ns responded_ns] [isp]
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "checker/causal_checker.h"
#include "checker/online_monitor.h"
#include "checker/search_checker.h"
#include "checker/trace_io.h"
#include "interconnect/federation.h"
#include "protocols/anbkh.h"
#include "workload/generator.h"

using namespace cim;

namespace {

int check(const chk::History& history, chk::Level level, bool sequential,
          bool sessions) {
  std::cout << history.size() << " operations, "
            << history.processes().size() << " processes\n";

  auto res = chk::CausalChecker{}.check(history, level);
  const char* level_name = level == chk::Level::kCM    ? "causal memory (CM)"
                           : level == chk::Level::kCCv ? "causal convergence (CCv)"
                                                       : "causal consistency (CC)";
  std::cout << level_name
            << ": " << (res.ok() ? "OK" : "VIOLATION") << "\n";
  if (!res.ok()) {
    std::cout << "  " << chk::to_string(res.pattern) << ": " << res.detail
              << "\n";
  }
  if (sequential) {
    auto seq = chk::SearchChecker{}.is_sequential(history);
    if (!seq.has_value()) {
      std::cout << "sequential consistency: UNDECIDED (history too large for "
                   "the exhaustive checker)\n";
    } else {
      std::cout << "sequential consistency: " << (*seq ? "OK" : "VIOLATION")
                << "\n";
    }
  }
  if (sessions) {
    // The online monitor's replay: each violation's witness is labelled
    // with the session guarantee it breaks.
    const std::vector<chk::Violation> found = chk::OnlineMonitor::check(history);
    for (auto g : {chk::Guarantee::kReadYourWrites,
                   chk::Guarantee::kMonotonicReads,
                   chk::Guarantee::kMonotonicWrites,
                   chk::Guarantee::kWritesFollowReads}) {
      const auto hit =
          std::find_if(found.begin(), found.end(),
                       [g](const chk::Violation& v) { return v.label == g; });
      std::cout << chk::to_string(g) << ": "
                << (hit == found.end() ? "OK" : "VIOLATION") << "\n";
      if (hit != found.end()) {
        std::cout << "  " << chk::to_string(hit->pattern) << ": "
                  << hit->proc << " read " << hit->var << " from ";
        if (hit->w1.valid()) {
          std::cout << hit->w1;
        } else {
          std::cout << "the initial value";
        }
        std::cout << " although " << hit->w2 << " precedes the read\n";
      }
    }
    for (const chk::Violation& v : found) {
      if (v.label != chk::Guarantee::kNone) continue;
      std::cout << "replay stopped: " << chk::to_string(v.pattern) << " at "
                << v.proc << "'s read of " << v.var << "\n";
    }
  }
  return res.ok() ? 0 : 1;
}

int demo() {
  std::cout << "# generating a two-system execution and checking its trace\n";
  isc::FederationConfig cfg;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sys;
    sys.id = SystemId{s};
    sys.num_app_processes = 2;
    sys.protocol = proto::anbkh_protocol();
    sys.seed = 5 + s;
    cfg.systems.push_back(std::move(sys));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  cfg.links.push_back(link);
  isc::Federation fed(std::move(cfg));

  wl::UniformConfig wc;
  wc.ops_per_process = 6;
  wc.seed = 2;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  const std::string trace = chk::to_trace(fed.federation_history());
  std::cout << trace << "\n";

  auto parsed = chk::parse_trace(trace);
  if (!parsed.history) {
    std::cout << "round-trip parse failed: " << parsed.error << "\n";
    return 1;
  }
  return check(*parsed.history, chk::Level::kCM, /*sequential=*/true,
               /*sessions=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  chk::Level level = chk::Level::kCM;
  bool sequential = false;
  bool sessions = false;
  bool run_demo = argc <= 1;  // no arguments: run the demo

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      run_demo = true;
    } else if (arg == "--cc") {
      level = chk::Level::kCC;
    } else if (arg == "--cm") {
      level = chk::Level::kCM;
    } else if (arg == "--ccv") {
      level = chk::Level::kCCv;
    } else if (arg == "--sequential") {
      sequential = true;
    } else if (arg == "--sessions") {
      sessions = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    } else {
      file = arg;
    }
  }

  if (run_demo) return demo();

  std::ifstream in(file);
  if (!in) {
    std::cerr << "cannot open " << file << "\n";
    return 2;
  }
  auto parsed = chk::read_trace(in);
  if (!parsed.history) {
    std::cerr << "parse error: " << parsed.error << "\n";
    return 2;
  }
  return check(*parsed.history, level, sequential, sessions);
}
