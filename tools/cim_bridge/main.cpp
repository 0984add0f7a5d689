// cim_bridge: one causal memory system per OS process, interconnected into
// a tree mesh over real TCP sockets — the paper's Corollary 1 (any tree of
// causal systems is causal) as a deployable federation (docs/BRIDGE.md).
//
// Every process (scripts/mesh_smoke.sh) names its node id and
// the shared topology — a spec file or a generated shape:
//
//   cim_bridge --node 0 --shape btree --n 4 --base-port 9100
//              --history n0.hist --metrics n0.json &       (one command)
//   cim_bridge --node 1 --shape btree --n 4 --base-port 9100 ... &
//   ...
//
// Node i listens on base-port + i, dials its lower-id neighbors and
// answers the higher ones, all at once on its one epoll loop. Every link
// forms through one kRejoin handshake — at cursor 0 on a fresh start —
// whose session id hashes the wire version, the topology and the seed, so
// mismatched launches fail fast. Each process drives a uniform
// workload with a disjoint value range, so `cat *.hist` is a checkable
// merged history: examples/trace_checker verifies the whole tree's
// computation is causal. A range holds 200 000 values per generation, so a
// node refuses `--procs` × `--ops` > 200000 at startup (4 × 50 000 fits).
//
// Crash tolerance (scripts/mesh_chaos_smoke.sh): with `--state FILE` every
// session event spills to a write-ahead journal and `--history` streams to
// disk as operations record. A kill -9'd node restarts with the same flags
// plus `--resume`: it reloads the journal, rejoins its neighbors through
// the same handshake at its restored cursors, and the merged history still
// checks out with zero duplicated and zero lost pair deliveries. Without
// `--resume` it is refused: its neighbors see cursors behind what it had
// acknowledged, and it will not overwrite a resumable journal. While a
// peer is down the survivors degrade (heartbeat misses, bounded
// backpressure) instead of dying — see docs/BRIDGE.md "Failure behavior"
// and docs/FAULTS.md.
//
// Mechanics — epoll transport, link handshake, link sessions, done/bye
// convergecast — live in mesh::MeshNode (src/mesh/mesh_node.h); this tool
// only parses flags and dumps history/metrics/trace files.
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "interconnect/topology.h"
#include "mesh/mesh_node.h"
#include "obs/metrics.h"

using namespace cim;

namespace {

struct Options {
  // Mesh position.
  std::size_t node = SIZE_MAX;
  std::string topo_path;          // spec file…
  std::string shape;              // …or generated: chain|star|btree
  std::size_t n = 0;              // node count for --shape
  std::uint16_t base_port = 0;
  // Common.
  std::string host = "127.0.0.1";
  std::uint16_t procs = 4;
  std::size_t ops = 25;
  std::uint64_t seed = 7;
  int join_timeout_ms = 10'000;
  std::string history_path;
  std::string metrics_path;
  std::string trace_path;
  // Crash tolerance (docs/BRIDGE.md "Failure behavior").
  std::string state_path;
  bool resume = false;
  mesh::SessionTiming timing;
  int drain_timeout_ms = 10'000;
  // Observability plane (docs/OBSERVABILITY.md "Federation snapshot").
  int stats_interval_ms = 0;
  std::string fed_metrics_path;
};

int usage() {
  std::cerr
      << "usage: cim_bridge --node N (--topo FILE | --shape chain|star|btree"
         " --n N) --base-port P\n"
         "       [--host H] [--procs N] [--ops N] [--seed N]"
         " [--join-timeout MS]\n"
         "       [--history FILE] [--metrics FILE] [--trace FILE]\n"
         "       [--state FILE] [--resume] [--hb-interval MS]"
         " [--liveness MS]\n"
         "       [--degraded-timeout MS] [--backoff MS] [--backoff-max MS]\n"
         "       [--reconnect-attempts N (0 = unbounded)]"
         " [--drain-timeout MS]\n"
         "       [--stats-interval MS] [--fed-metrics FILE]  (node 0 only)\n";
  return 2;
}

// Longest delay a flag may name: a day. Backoff grows to 1.5x its cap with
// jitter, and every delay must stay an int number of milliseconds.
constexpr int kMaxMs = 86'400'000;

// Parse all of `v` as a base-10 integer in [lo, hi] into `out`; false on
// anything else (a sign an unsigned type cannot take, trailing text, out of
// range).
template <typename T>
bool parse_number(const char* v, T lo, T hi, T& out) {
  const char* end = v + std::strlen(v);
  T x{};
  const auto [ptr, ec] = std::from_chars(v, end, x);
  if (ec != std::errc() || ptr != end || x < lo || x > hi) return false;
  out = x;
  return true;
}

bool parse_args(int argc, char** argv, Options& opt) {
  constexpr auto kSizeMax = std::numeric_limits<std::size_t>::max();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag: true if `arg` is `name`, with `ok` saying whether its
    // value parsed into [lo, hi].
    bool ok = true;
    auto number = [&](const char* name, auto lo, auto hi, auto& out) {
      if (std::strcmp(arg, name) != 0) return false;
      const char* v = next();
      ok = v != nullptr && parse_number(v, lo, hi, out);
      return true;
    };
    auto ms = [&](const char* name, int lo, int& out) {
      return number(name, lo, kMaxMs, out);
    };
    mesh::SessionTiming& t = opt.timing;
    // The unset node id is SIZE_MAX; every node's port, base_port + id,
    // must be a port, so --n is one too.
    if (number("--node", std::size_t{0}, kSizeMax - 1, opt.node) ||
        number("--n", std::size_t{1}, std::size_t{65535}, opt.n) ||
        number("--base-port", std::uint16_t{1}, std::uint16_t{65535},
               opt.base_port) ||
        number("--procs", std::uint16_t{0}, std::uint16_t{65535},
               opt.procs) ||
        number("--ops", std::size_t{0}, kSizeMax, opt.ops) ||
        number("--seed", std::uint64_t{0},
               std::numeric_limits<std::uint64_t>::max(), opt.seed) ||
        ms("--join-timeout", 1, opt.join_timeout_ms) ||
        ms("--hb-interval", 1, t.hb_interval_ms) ||
        ms("--liveness", 1, t.liveness_timeout_ms) ||
        ms("--degraded-timeout", 0, t.degraded_timeout_ms) ||
        ms("--backoff", 1, t.backoff_initial_ms) ||
        ms("--backoff-max", 1, t.backoff_max_ms) ||
        number("--reconnect-attempts", 0, std::numeric_limits<int>::max(),
               t.reconnect_attempts) ||
        ms("--drain-timeout", 0, opt.drain_timeout_ms) ||
        ms("--stats-interval", 0, opt.stats_interval_ms)) {
      if (!ok) return false;
      continue;
    }
    const char* v = nullptr;
    if (std::strcmp(arg, "--topo") == 0 && (v = next())) {
      opt.topo_path = v;
    } else if (std::strcmp(arg, "--shape") == 0 && (v = next())) {
      opt.shape = v;
    } else if (std::strcmp(arg, "--host") == 0 && (v = next())) {
      opt.host = v;
    } else if (std::strcmp(arg, "--history") == 0 && (v = next())) {
      opt.history_path = v;
    } else if (std::strcmp(arg, "--metrics") == 0 && (v = next())) {
      opt.metrics_path = v;
    } else if (std::strcmp(arg, "--trace") == 0 && (v = next())) {
      opt.trace_path = v;
    } else if (std::strcmp(arg, "--state") == 0 && (v = next())) {
      opt.state_path = v;
    } else if (std::strcmp(arg, "--resume") == 0) {
      opt.resume = true;
    } else if (std::strcmp(arg, "--fed-metrics") == 0 && (v = next())) {
      opt.fed_metrics_path = v;
    } else {
      return false;
    }
  }
  if (opt.resume && opt.state_path.empty()) {
    std::cerr << "--resume requires --state\n";
    return false;
  }
  return opt.node != SIZE_MAX && opt.base_port != 0 &&
         (!opt.topo_path.empty() || (!opt.shape.empty() && opt.n > 0));
}

isc::TopologyResult load_topology(const Options& opt) {
  if (!opt.topo_path.empty()) {
    std::ifstream is(opt.topo_path);
    if (!is) {
      isc::TopologyResult res;
      res.error = "cannot read topology spec " + opt.topo_path;
      return res;
    }
    std::ostringstream text;
    text << is.rdbuf();
    return isc::parse_topology(text.str());
  }
  isc::Topology topo;
  if (opt.shape == "chain") {
    topo = isc::make_chain(opt.n);
  } else if (opt.shape == "star") {
    topo = isc::make_star(opt.n);
  } else if (opt.shape == "btree") {
    topo = isc::make_btree(opt.n);
  } else {
    isc::TopologyResult res;
    res.error = "unknown --shape " + opt.shape + " (chain|star|btree)";
    return res;
  }
  return isc::validate_topology(std::move(topo));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();
  const std::string tag = "[node" + std::to_string(opt.node) + "]";

  isc::TopologyResult topo = load_topology(opt);
  if (!topo.ok()) {
    std::cerr << tag << " " << topo.error << "\n";
    return 2;
  }

  mesh::MeshConfig cfg;
  cfg.node_id = opt.node;
  cfg.topo = std::move(topo.topo);
  cfg.base_port = opt.base_port;
  cfg.host = opt.host;
  cfg.procs = opt.procs;
  cfg.ops = opt.ops;
  cfg.seed = opt.seed;
  cfg.join_timeout_ms = opt.join_timeout_ms;
  cfg.trace = !opt.trace_path.empty();
  // The history streams to disk as it records (crash-durable) rather than
  // being dumped post-run: a kill -9'd node's writes are already on disk.
  cfg.history_path = opt.history_path;
  cfg.state_path = opt.state_path;
  cfg.resume = opt.resume;
  cfg.timing = opt.timing;
  cfg.drain_timeout_ms = opt.drain_timeout_ms;
  // --fed-metrics implies the stats plane: default its cadence on so a bare
  // `--fed-metrics fed.json` run still leaves a snapshot behind.
  cfg.stats_interval_ms = opt.stats_interval_ms;
  if (!opt.fed_metrics_path.empty() && cfg.stats_interval_ms == 0)
    cfg.stats_interval_ms = 250;
  cfg.fed_metrics_path = opt.fed_metrics_path;

  mesh::MeshNode node(std::move(cfg));
  if (!node.join()) {
    std::cerr << tag << " join failed: " << node.error() << "\n";
    return 1;
  }
  mesh::MeshResult res = node.run();
  if (!res.ok) {
    std::cerr << tag << " " << node.error() << "\n";
    return 1;
  }

  isc::Federation& fed = node.federation();
  if (!opt.trace_path.empty()) {
    std::ofstream os(opt.trace_path);
    if (!os) {
      std::cerr << tag << " cannot write " << opt.trace_path << "\n";
      return 1;
    }
    fed.observability().trace().write_jsonl(os);
  }
  if (!opt.metrics_path.empty()) {
    std::ofstream os(opt.metrics_path);
    if (!os) {
      std::cerr << tag << " cannot write " << opt.metrics_path << "\n";
      return 1;
    }
    obs::write_json(os, fed.metrics_snapshot());
  }

  std::cout << tag << " system " << opt.node << " gen " << node.generation()
            << ": " << res.ops_done << " ops, pairs sent " << res.pairs_sent
            << ", received " << res.pairs_received << ", links "
            << node.degree() << ", monitor violations " << res.violations
            << "\n";
  return res.violations > 0 ? 1 : 0;
}
