// Sparse dependency graph over a columnar History.
//
// The bad-pattern checker used to materialize every order as a dense n×n
// bit matrix (relation.h) and close it transitively — O(n²) memory and
// O(n³/64) time, which caps it far below the multi-million-op histories the
// mesh produces. This graph keeps program order *implicit* in the history's
// per-process spans and stores only the explicit edges (reads-from, derived
// happens-before, conflict) as CSR adjacency, giving:
//
//  * Kahn toposort in O(n + m), with a Tarjan-SCC pass to localize a cycle
//    witness when the sort stalls;
//  * per-op *vector clocks* in O((n + m) · P): clock[i][p] is the highest
//    1-based program-order position among process p's operations causally
//    at-or-before op i, so the reachability query a ⇝ b is one integer
//    compare — the sparse replacement for Relation::test.
//
// The dense Relation survives only where the reference SearchChecker and
// CausalChecker::causal_order genuinely need a materialized order.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "checker/history.h"

namespace cim::chk {

/// One explicit edge (from precedes to). Program order is never stored.
struct Edge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};

class SparseGraph {
 public:
  explicit SparseGraph(const History& h);

  std::size_t size() const { return n_; }
  std::size_t num_procs() const { return P_; }
  std::uint32_t proc_of(std::size_t i) const { return proc_of_[i]; }
  /// 1-based program-order position of op i within its process.
  std::uint32_t seq1(std::size_t i) const { return seq1_[i]; }

  /// Replace the explicit edge set (rf ∪ derived ∪ cf). Self-edges are the
  /// caller's bug; duplicate edges are tolerated.
  void set_edges(const std::vector<Edge>& edges);
  std::size_t num_edges() const { return fwd_to_.size(); }

  /// Calls f(s) for each successor s of op v in po ∪ edges: its
  /// program-order successor, if any, then its explicit out-edges.
  template <class F>
  void for_each_succ(std::uint32_t v, F&& f) const {
    if (v + 1 < n_ && in_same_span(v, v + 1)) f(v + 1);
    for (std::uint32_t k = fwd_off_[v]; k < fwd_off_[v + 1]; ++k) {
      f(fwd_to_[k]);
    }
  }

  /// Kahn toposort over po ∪ edges. Returns true and fills `order` (size n)
  /// when acyclic; returns false and, if non-null, sets `witness` to two
  /// distinct mutually-reachable ops otherwise.
  bool topo_order(std::vector<std::uint32_t>& order,
                  std::pair<std::uint32_t, std::uint32_t>* witness) const;

  /// Tarjan strongly connected components over po ∪ edges. comp[i] is the
  /// component id (components are numbered in reverse topological order of
  /// discovery). Returns the number of components.
  std::size_t scc(std::vector<std::uint32_t>& comp) const;

  /// Vector clocks over po ∪ edges, flat n×P: out[i*P + p] = max seq1 among
  /// ops of process p causally at-or-before op i (op i itself included).
  /// `order` must be a topo order from topo_order().
  void clocks(const std::vector<std::uint32_t>& order,
              std::vector<std::uint32_t>& out) const;

  /// Strict reachability a ⇝ b (a ≠ b) under clocks from clocks().
  bool reaches(const std::vector<std::uint32_t>& clk, std::uint32_t a,
               std::uint32_t b) const {
    return a != b && clk[static_cast<std::size_t>(b) * P_ + proc_of_[a]] >=
                         seq1_[a];
  }

 private:
  bool in_same_span(std::size_t i, std::size_t succ) const {
    return seq1_[succ] > 1 && succ == i + 1;
  }

  std::size_t n_ = 0;
  std::size_t P_ = 0;
  std::vector<std::uint32_t> proc_of_;  // dense process index per op
  std::vector<std::uint32_t> seq1_;     // 1-based program-order position
  // CSR adjacency of the explicit edges, both directions.
  std::vector<std::uint32_t> fwd_off_, fwd_to_;
  std::vector<std::uint32_t> rev_off_, rev_from_;
};

}  // namespace cim::chk
