// Mesh topology specs for n-system federations (docs/BRIDGE.md).
//
// A Topology names the systems 0..n-1 and lists the interconnecting links as
// undirected edges. The paper's Corollary 1 makes trees the interesting
// class — any tree of causal systems is causal — so validate() requires a
// tree: connected, exactly n-1 edges, no self-loops or duplicates. The
// generators cover the three shapes the mesh tooling exercises (chain, star,
// balanced binary tree); parse() reads the on-disk spec format used by
// `cim_bridge --topo` and scripts/mesh_smoke.sh:
//
//     # comment
//     nodes 4
//     edge 0 1
//     edge 0 2
//     edge 1 3
//
// hash() is a canonical FNV-1a over the node count and the sorted edge list.
// Every mesh link's session id hashes it (mesh::edge_session_id), so two
// processes launched with diverging spec files refuse to form a mesh
// instead of silently building a topology nobody asked for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cim::isc {

struct TopologyEdge {
  std::size_t a = 0;  // normalized: a < b
  std::size_t b = 0;

  bool operator==(const TopologyEdge& o) const { return a == o.a && b == o.b; }
};

struct Topology {
  std::size_t nodes = 0;
  std::vector<TopologyEdge> edges;  // sorted by (a, b)

  /// Neighbor node ids of `node`, ascending.
  std::vector<std::size_t> neighbors(std::size_t node) const;

  /// Degree of `node` (number of incident edges).
  std::size_t degree(std::size_t node) const;

  /// Index into edges of the {min,max}(x,y) edge, or npos if absent.
  std::size_t edge_index(std::size_t x, std::size_t y) const;

  /// Canonical 64-bit FNV-1a of node count + sorted edges. Equal topologies
  /// hash equal regardless of spec-file edge order.
  std::uint64_t hash() const;

  /// Render in the spec-file format parse() accepts.
  std::string format() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Chain 0-1-2-...-(n-1).
Topology make_chain(std::size_t n);

/// Star with hub 0.
Topology make_star(std::size_t n);

/// Balanced binary tree in heap order: node i links to 2i+1 and 2i+2.
Topology make_btree(std::size_t n);

/// Result of parse()/validate(): either a topology or a human-readable error.
struct TopologyResult {
  Topology topo;
  std::string error;  // empty on success

  bool ok() const { return error.empty(); }
};

/// Parse the spec format above. Validates (see validate_topology).
TopologyResult parse_topology(const std::string& text);

/// Tree check: node ids in range, no self-loops/duplicates, connected,
/// exactly n-1 edges. Returns the normalized (sorted, a<b) topology.
TopologyResult validate_topology(Topology topo);

}  // namespace cim::isc
