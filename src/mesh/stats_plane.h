// Stats plane: federation-wide live metrics aggregation over the mesh
// (docs/BRIDGE.md "Stats aggregation", docs/OBSERVABILITY.md "Federation
// snapshot").
//
// Every node samples a compact snapshot of its own link-session and
// transport gauges each cadence tick and sends it as a wire StatsFrame
// (docs/WIRE.md type 8) toward node 0 along the tree: a node forwards every
// frame it receives from a child subtree to its parent unchanged, so node 0
// eventually holds the latest frame from every node — the same convergecast
// routing the done/bye termination uses, but continuous. Node 0 folds the
// frames into one federation-wide metrics JSON (schema v5 `fed.node.<i>.*`
// entries) refreshed on every tick, which `cim_top` tails for a live view
// and CI parses after a chaos run.
//
// Stats frames ride the ordinary LinkSession (journaled, replayed across
// reconnects, FIFO with data) but are excluded from the pair accounting the
// termination convergecast drains against — like control frames, they are
// session metadata, not causal-memory traffic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "interconnect/topology.h"
#include "net/wire.h"

namespace cim::mesh {

/// Parent of `node` on the tree path toward node 0 (BFS from 0), or
/// Topology::npos for node 0 itself. The topology must be a validated tree
/// containing `node`.
std::size_t stats_parent(const isc::Topology& topo, std::size_t node);

/// Node 0's fold of the per-node StatsFrames. Not thread-safe: a node folds
/// inbound frames and its local sample, and writes the snapshot, on its one
/// thread, the loop's.
class FedAggregator {
 public:
  /// Keep `frame` as the latest snapshot from its origin node (newer t_ns
  /// wins; an out-of-order frame from a reconnect replay is dropped).
  void fold(const net::wire::StatsFrame& frame);

  /// Node ids covered so far, ascending.
  std::vector<std::uint64_t> origins() const;

  /// Total frames folded (including superseded ones).
  std::uint64_t frames_folded() const;

  /// Write the federation-wide snapshot: cim.metrics.v1 JSON whose entries
  /// are gauges named fed.node.<origin>.<key> plus fed.nodes /
  /// fed.node.<origin>.t_ns, with the schema-v5 meta header. The file is
  /// written to <path>.tmp and renamed so a concurrent reader (cim_top
  /// tailing the snapshot) never sees a torn document. Returns success.
  bool write_json(const std::string& path) const;

 private:
  std::map<std::uint64_t, net::wire::StatsFrame> latest_;
  std::uint64_t folded_ = 0;
};

}  // namespace cim::mesh
