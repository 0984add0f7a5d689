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
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
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
  int hb_interval_ms = 100;
  int liveness_timeout_ms = 2000;
  int degraded_timeout_ms = 0;
  int backoff_ms = 50;
  int backoff_max_ms = 1000;
  int reconnect_attempts = 40;
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
         "       [--reconnect-attempts N] [--drain-timeout MS]\n"
         "       [--stats-interval MS] [--fed-metrics FILE]  (node 0 only)\n";
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(arg, "--node") == 0 && (v = next())) {
      opt.node = std::stoul(v);
    } else if (std::strcmp(arg, "--topo") == 0 && (v = next())) {
      opt.topo_path = v;
    } else if (std::strcmp(arg, "--shape") == 0 && (v = next())) {
      opt.shape = v;
    } else if (std::strcmp(arg, "--n") == 0 && (v = next())) {
      opt.n = std::stoul(v);
    } else if (std::strcmp(arg, "--base-port") == 0 && (v = next())) {
      opt.base_port = static_cast<std::uint16_t>(std::stoul(v));
    } else if (std::strcmp(arg, "--host") == 0 && (v = next())) {
      opt.host = v;
    } else if (std::strcmp(arg, "--procs") == 0 && (v = next())) {
      opt.procs = static_cast<std::uint16_t>(std::stoul(v));
    } else if (std::strcmp(arg, "--ops") == 0 && (v = next())) {
      opt.ops = std::stoul(v);
    } else if (std::strcmp(arg, "--seed") == 0 && (v = next())) {
      opt.seed = std::stoull(v);
    } else if (std::strcmp(arg, "--join-timeout") == 0 && (v = next())) {
      opt.join_timeout_ms = std::stoi(v);
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
    } else if (std::strcmp(arg, "--hb-interval") == 0 && (v = next())) {
      opt.hb_interval_ms = std::stoi(v);
    } else if (std::strcmp(arg, "--liveness") == 0 && (v = next())) {
      opt.liveness_timeout_ms = std::stoi(v);
    } else if (std::strcmp(arg, "--degraded-timeout") == 0 && (v = next())) {
      opt.degraded_timeout_ms = std::stoi(v);
    } else if (std::strcmp(arg, "--backoff") == 0 && (v = next())) {
      opt.backoff_ms = std::stoi(v);
    } else if (std::strcmp(arg, "--backoff-max") == 0 && (v = next())) {
      opt.backoff_max_ms = std::stoi(v);
    } else if (std::strcmp(arg, "--reconnect-attempts") == 0 && (v = next())) {
      opt.reconnect_attempts = std::stoi(v);
    } else if (std::strcmp(arg, "--drain-timeout") == 0 && (v = next())) {
      opt.drain_timeout_ms = std::stoi(v);
    } else if (std::strcmp(arg, "--stats-interval") == 0 && (v = next())) {
      opt.stats_interval_ms = std::stoi(v);
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
  cfg.hb_interval_ms = opt.hb_interval_ms;
  cfg.liveness_timeout_ms = opt.liveness_timeout_ms;
  cfg.degraded_timeout_ms = opt.degraded_timeout_ms;
  cfg.backoff_initial_ms = opt.backoff_ms;
  cfg.backoff_max_ms = opt.backoff_max_ms;
  cfg.reconnect_attempts = opt.reconnect_attempts;
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
