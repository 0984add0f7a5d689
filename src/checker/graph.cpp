#include "checker/graph.h"

#include <algorithm>

namespace cim::chk {

SparseGraph::SparseGraph(const History& h) : n_(h.size()), P_(h.num_processes()) {
  proc_of_.resize(n_);
  seq1_.resize(n_);
  for (std::size_t p = 0; p < P_; ++p) {
    const History::Span s = h.process_span(p);
    for (std::size_t i = s.begin; i < s.end; ++i) {
      proc_of_[i] = static_cast<std::uint32_t>(p);
      seq1_[i] = static_cast<std::uint32_t>(i - s.begin + 1);
    }
  }
  set_edges({});
}

void SparseGraph::set_edges(const std::vector<Edge>& edges) {
  const std::size_t m = edges.size();
  fwd_off_.assign(n_ + 1, 0);
  rev_off_.assign(n_ + 1, 0);
  fwd_to_.resize(m);
  rev_from_.resize(m);
  for (const Edge& e : edges) {
    ++fwd_off_[e.from + 1];
    ++rev_off_[e.to + 1];
  }
  for (std::size_t i = 1; i <= n_; ++i) {
    fwd_off_[i] += fwd_off_[i - 1];
    rev_off_[i] += rev_off_[i - 1];
  }
  std::vector<std::uint32_t> fcur(fwd_off_.begin(), fwd_off_.end() - 1);
  std::vector<std::uint32_t> rcur(rev_off_.begin(), rev_off_.end() - 1);
  for (const Edge& e : edges) {
    fwd_to_[fcur[e.from]++] = e.to;
    rev_from_[rcur[e.to]++] = e.from;
  }
}

bool SparseGraph::topo_order(std::vector<std::uint32_t>& order,
                             std::pair<std::uint32_t, std::uint32_t>* witness)
    const {
  order.clear();
  order.reserve(n_);
  std::vector<std::uint32_t> indeg(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    if (seq1_[i] > 1) ++indeg[i];  // po predecessor i-1
    indeg[i] += rev_off_[i + 1] - rev_off_[i];
  }
  std::vector<std::uint32_t> ready;
  for (std::size_t i = 0; i < n_; ++i) {
    if (indeg[i] == 0) ready.push_back(static_cast<std::uint32_t>(i));
  }
  while (!ready.empty()) {
    const std::uint32_t v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for_each_succ(v, [&](std::uint32_t succ) {
      if (--indeg[succ] == 0) ready.push_back(succ);
    });
  }
  if (order.size() == n_) return true;
  if (witness != nullptr) {
    // Localize the cycle: any SCC with two members witnesses it.
    std::vector<std::uint32_t> comp;
    scc(comp);
    std::vector<std::uint32_t> first(comp.empty() ? 0 : n_, UINT32_MAX);
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint32_t c = comp[i];
      if (first[c] == UINT32_MAX) {
        first[c] = static_cast<std::uint32_t>(i);
      } else {
        *witness = {first[c], static_cast<std::uint32_t>(i)};
        return false;
      }
    }
    *witness = {0, 0};  // unreachable for cycles without self-edges
  }
  return false;
}

std::size_t SparseGraph::scc(std::vector<std::uint32_t>& comp) const {
  // Iterative Tarjan. Successors of v: its po successor (if any) plus the
  // explicit fwd edges; an edge cursor per frame walks them without
  // materializing successor lists.
  comp.assign(n_, UINT32_MAX);
  std::vector<std::uint32_t> low(n_, 0), num(n_, 0);
  std::vector<std::uint32_t> stack;           // Tarjan stack
  std::vector<std::uint8_t> on_stack(n_, 0);
  struct Frame {
    std::uint32_t v;
    std::uint32_t edge;   // next fwd-edge cursor (offset into fwd_to_)
    bool po_done;         // po successor visited
  };
  std::vector<Frame> frames;
  std::uint32_t next_num = 1;
  std::size_t comps = 0;

  for (std::size_t root = 0; root < n_; ++root) {
    if (num[root] != 0) continue;
    frames.push_back(Frame{static_cast<std::uint32_t>(root), 0, false});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::uint32_t v = f.v;
      if (num[v] == 0) {
        num[v] = low[v] = next_num++;
        stack.push_back(v);
        on_stack[v] = 1;
        f.edge = fwd_off_[v];
      }
      std::uint32_t child = UINT32_MAX;
      if (!f.po_done) {
        f.po_done = true;
        if (v + 1 < n_ && in_same_span(v, v + 1)) child = v + 1;
      }
      while (child == UINT32_MAX && f.edge < fwd_off_[v + 1]) {
        child = fwd_to_[f.edge++];
        if (num[child] != 0) {
          if (on_stack[child]) low[v] = std::min(low[v], num[child]);
          child = UINT32_MAX;
        }
      }
      if (child != UINT32_MAX) {
        if (num[child] == 0) {
          frames.push_back(Frame{child, 0, false});
        } else if (on_stack[child]) {
          low[v] = std::min(low[v], num[child]);
        }
        continue;
      }
      // v is finished: pop its component if it is a root.
      if (low[v] == num[v]) {
        while (true) {
          const std::uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          comp[w] = static_cast<std::uint32_t>(comps);
          if (w == v) break;
        }
        ++comps;
      }
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().v] = std::min(low[frames.back().v], low[v]);
      }
    }
  }
  return comps;
}

void SparseGraph::clocks(const std::vector<std::uint32_t>& order,
                         std::vector<std::uint32_t>& out) const {
  out.assign(n_ * P_, 0);
  for (const std::uint32_t v : order) {
    std::uint32_t* row = out.data() + static_cast<std::size_t>(v) * P_;
    auto join = [&](std::uint32_t u) {
      const std::uint32_t* ru = out.data() + static_cast<std::size_t>(u) * P_;
      for (std::size_t p = 0; p < P_; ++p) row[p] = std::max(row[p], ru[p]);
    };
    if (seq1_[v] > 1) join(v - 1);
    for (std::uint32_t k = rev_off_[v]; k < rev_off_[v + 1]; ++k) {
      join(rev_from_[k]);
    }
    const std::uint32_t p = proc_of_[v];
    row[p] = std::max(row[p], seq1_[v]);
  }
}

}  // namespace cim::chk
