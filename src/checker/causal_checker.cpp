#include "checker/causal_checker.h"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <utility>
#include <vector>

#include "checker/graph.h"
#include "common/check.h"

namespace cim::chk {

const char* to_string(BadPattern p) {
  switch (p) {
    case BadPattern::kNone: return "none";
    case BadPattern::kCyclicCO: return "CyclicCO";
    case BadPattern::kThinAirRead: return "ThinAirRead";
    case BadPattern::kWriteCOInitRead: return "WriteCOInitRead";
    case BadPattern::kWriteCORead: return "WriteCORead";
    case BadPattern::kCyclicHB: return "CyclicHB";
    case BadPattern::kWriteHBInitRead: return "WriteHBInitRead";
    case BadPattern::kCyclicCF: return "CyclicCF";
    case BadPattern::kResidualLimit: return "ResidualLimit";
  }
  return "?";
}

namespace {

// rf source markers (per-read): a concrete write index, or one of these.
constexpr std::uint32_t kInitSrc = 0xFFFFFFFFu;   // reads the initial value
constexpr std::uint32_t kAmbiguous = 0xFFFFFFFEu; // >1 admissible writer

std::string describe(const History& h, std::size_t i) {
  return h.op(i).to_string();
}

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Writes per (variable, process), ascending program order — CSR over the
/// flat (var_dense * P + proc_dense) key. Gives the pattern scans their two
/// primitives: the first write of a variable on a process, and the latest
/// one visible inside a vector-clock frontier. The writes' seq1 positions
/// sit beside their indices, so the frontier search reads one contiguous
/// array.
///
/// Every scan walks reads in program order, along which a read's clock row
/// only grows, so the frontier search is a forward-only cursor per bucket:
/// it gallops from where the bucket's last answer left it (steps 1, 2,
/// 4, ...) and binary-searches only the final gap. rewind() starts a new
/// scan by bumping an epoch; a bucket whose stamp is older restarts at its
/// first write, so no O(V·P) clear is needed.
struct VarProcWrites {
  struct Cursor {
    std::uint32_t at = 0;     // first entry past the frontier last asked
    std::uint32_t epoch = 0;  // scan that `at` belongs to
  };

  std::vector<std::uint32_t> off;  // size V*P + 1
  std::vector<std::uint32_t> idx;  // write op indices
  std::vector<std::uint32_t> seq;  // seq1 of each idx entry
  std::vector<Cursor> cur;         // per bucket
  std::uint32_t epoch = 0;
  std::size_t P = 0;

  void build(const History& h, const SparseGraph& g) {
    P = h.num_processes();
    const std::size_t buckets = h.num_vars() * P;
    cur.assign(buckets, Cursor{});
    off.assign(buckets + 1, 0);
    std::size_t writes = 0;
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (!h.is_write(i)) continue;
      ++off[h.var_dense(i) * P + g.proc_of(i) + 1];
      ++writes;
    }
    for (std::size_t b = 1; b <= buckets; ++b) off[b] += off[b - 1];
    idx.resize(writes);
    seq.resize(writes);
    std::vector<std::uint32_t> cur(off.begin(), off.end() - 1);
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (!h.is_write(i)) continue;
      const std::uint32_t k = cur[h.var_dense(i) * P + g.proc_of(i)]++;
      idx[k] = static_cast<std::uint32_t>(i);
      seq[k] = g.seq1(i);
    }
  }

  std::pair<const std::uint32_t*, const std::uint32_t*> span(
      std::uint32_t var, std::uint32_t proc) const {
    const std::size_t b = static_cast<std::size_t>(var) * P + proc;
    return {idx.data() + off[b], idx.data() + off[b + 1]};
  }

  /// Starts a scan: every bucket's cursor goes back to its first write.
  void rewind() {
    if (++epoch != 0) return;
    std::fill(cur.begin(), cur.end(), Cursor{});  // the stamps wrapped
    epoch = 1;
  }

  /// Latest write on (var, proc) whose program-order position is inside the
  /// clock frontier `upto` (1-based, inclusive); kInitSrc when none. Within
  /// one scan, `upto` must not shrink between calls on the same bucket.
  std::uint32_t advance(std::uint32_t var, std::uint32_t proc,
                        std::uint32_t upto) {
    const std::size_t b = static_cast<std::size_t>(var) * P + proc;
    Cursor& c = cur[b];
    if (c.epoch != epoch) c = {off[b], epoch};
    const std::uint32_t* s = seq.data();
    CIM_DCHECK(c.at == off[b] || s[c.at - 1] <= upto);
    // seq[lo - 1] <= upto throughout; the gallop stops at the first probe
    // past the frontier (or the bucket's end).
    const std::size_t end = off[b + 1];
    std::size_t lo = c.at, hi = c.at, step = 1;
    while (hi < end && s[hi] <= upto) {
      lo = hi + 1;
      hi += step;
      step *= 2;
    }
    c.at = static_cast<std::uint32_t>(
        std::upper_bound(s + lo, s + std::min(hi, end), upto) - s);
    return c.at == off[b] ? kInitSrc : idx[c.at - 1];
  }
};

struct AmbRead {
  std::uint32_t read = 0;
  // Candidate sources in preference order; kInitSrc encodes the ⊥ choice
  // (admissible only for reads of the initial value).
  std::vector<std::uint32_t> cands;
};

/// Shared state of one check: the graph, the write index, and the reads-from
/// resolution (unambiguous sources plus the residual ambiguous reads).
struct Engine {
  const History& h;
  SparseGraph g;
  VarProcWrites wvp;
  std::vector<std::uint32_t> rf;   // per op: write idx / kInitSrc / kAmbiguous
  std::vector<AmbRead> amb;
  std::vector<Edge> base_edges;    // rf edges of unambiguously resolved reads
  CheckResult fail;                // resolution failure (definite)
  CheckStats stats;

  double hb_ms = 0;                 // wall time in happens_before(), all passes

  // Scratch reused across evaluate() passes.
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> clk;
  std::vector<Edge> seeds;  // phase A's cf / first-round HB edges, flat ...
  std::vector<std::size_t> seed_off;  // ... at per-process offsets

  explicit Engine(const History& history) : h(history), g(history) {
    wvp.build(h, g);
    resolve();
    stats.ops = h.size();
    stats.ambiguous_reads = amb.size();
  }

  void resolve() {
    const std::size_t n = h.size();
    rf.assign(n, kInitSrc);
    // The writes sorted by (var, value, op index): each read's writers are
    // one equal_range, in ascending op index. Under the paper's
    // distinct-value assumption every range has one entry; repeated values
    // make ranges — and the reads over them — ambiguous.
    struct Writer {
      Value value;
      std::uint32_t var;
      std::uint32_t idx;
    };
    auto key_less = [](const Writer& a, const Writer& b) {
      return std::tie(a.var, a.value) < std::tie(b.var, b.value);
    };
    std::vector<Writer> writers;
    for (std::size_t i = 0; i < n; ++i) {
      if (h.is_write(i)) {
        writers.push_back(
            {h.value(i), h.var_dense(i), static_cast<std::uint32_t>(i)});
      }
    }
    // Collected in op-index order, so a stable sort keeps each key's
    // writers ascending; their indices are copied out contiguously for the
    // candidate lists.
    std::stable_sort(writers.begin(), writers.end(), key_less);
    std::vector<std::uint32_t> ids(writers.size());
    for (std::size_t k = 0; k < writers.size(); ++k) ids[k] = writers[k].idx;
    for (std::size_t i = 0; i < n; ++i) {
      if (h.is_write(i)) continue;
      const Value v = h.value(i);
      const auto range = std::equal_range(
          writers.begin(), writers.end(), Writer{v, h.var_dense(i), 0},
          key_less);
      const auto first = ids.begin() + (range.first - writers.begin());
      const auto last = ids.begin() + (range.second - writers.begin());
      const bool is_init = v == kInitValue;
      if (first == last) {
        if (!is_init) {
          fail = {BadPattern::kThinAirRead,
                  "read of a never-written value: " + describe(h, i)};
          return;
        }
        rf[i] = kInitSrc;  // unambiguous ⊥
        continue;
      }
      if (last - first == 1 && !is_init) {
        rf[i] = *first;
        base_edges.push_back({*first, static_cast<std::uint32_t>(i)});
        continue;
      }
      // Repeated value — or an initial-value read while writes of the
      // initial value exist (⊥ stays admissible alongside them).
      rf[i] = kAmbiguous;
      AmbRead a;
      a.read = static_cast<std::uint32_t>(i);
      a.cands.reserve(static_cast<std::size_t>(last - first) + 1);
      a.cands.assign(first, last);
      if (is_init) a.cands.push_back(kInitSrc);
      amb.push_back(std::move(a));
    }
  }

  /// The first write of `var` inside the clock frontier `row`, taking the
  /// processes in order; kInitSrc when none. A read of the initial value
  /// with such a write before it is stale.
  std::uint32_t first_visible_write(std::uint32_t var,
                                    const std::uint32_t* row) const {
    for (std::uint32_t p = 0; p < wvp.P; ++p) {
      auto [b, e] = wvp.span(var, p);
      if (b != e && g.seq1(*b) <= row[p]) return *b;
    }
    return kInitSrc;
  }

  /// Whether a write of r's variable inside r's clock row follows r's
  /// source w1 (w1 ⇝ w2). Advances the write cursors.
  bool overwritten(std::size_t r, std::uint32_t w1) {
    const std::uint32_t* row = clk.data() + r * wvp.P;
    for (std::uint32_t p = 0; p < wvp.P; ++p) {
      const std::uint32_t w2 = wvp.advance(h.var_dense(r), p, row[p]);
      if (w2 != kInitSrc && w2 != w1 && g.reaches(clk, w1, w2)) return true;
    }
    return false;
  }

  /// Full bad-pattern pass over po ∪ rf_edges with per-read sources `src`
  /// (entries equal to kAmbiguous are skipped — phase A runs with the
  /// ambiguous reads unconstrained, which only under-approximates co, so any
  /// violation it finds is definite under every assignment).
  CheckResult evaluate(const std::vector<std::uint32_t>& src,
                       const std::vector<Edge>& rf_edges, Level level) {
    const std::size_t P = h.num_processes();
    g.set_edges(rf_edges);
    stats.explicit_edges = std::max(stats.explicit_edges, rf_edges.size());
    std::pair<std::uint32_t, std::uint32_t> wit;
    if (!g.topo_order(order, &wit)) {
      return {BadPattern::kCyclicCO,
              "causal-order cycle through " + describe(h, wit.first) +
                  " and " + describe(h, wit.second)};
    }
    g.clocks(order, clk);

    // WriteCOInitRead and WriteCORead over the clock frontiers, one process
    // span at a time. The same scan collects, in (read, process) order, the
    // edges w2 -> w1 from a read's latest visible writer w2 on a process to
    // its source w1: at kCCv all of them are the conflict edges, and at kCM
    // those with no path w2 ⇝ w1 are the first happens-before round of the
    // read's process, derived under these very clocks.
    seeds.clear();
    seed_off.assign(P + 1, 0);
    for (std::size_t pi = 0; pi < P; ++pi) {
      const History::Span sp = h.process_span(pi);
      seed_off[pi] = seeds.size();
      wvp.rewind();
      for (std::size_t r = sp.begin; r < sp.end; ++r) {
        if (h.is_write(r) || src[r] == kAmbiguous) continue;
        const std::uint32_t var = h.var_dense(r);
        const std::uint32_t* row = clk.data() + r * P;
        const std::uint32_t w1 = src[r];
        if (w1 == kInitSrc) {
          const std::uint32_t w = first_visible_write(var, row);
          if (w == kInitSrc) continue;
          return {BadPattern::kWriteCOInitRead,
                  describe(h, r) + " returns the initial value but " +
                      describe(h, w) + " is causally before it"};
        }
        for (std::uint32_t p = 0; p < P; ++p) {
          const std::uint32_t w2 = wvp.advance(var, p, row[p]);
          if (w2 == kInitSrc || w2 == w1) continue;
          if (g.reaches(clk, w1, w2)) {
            return {BadPattern::kWriteCORead,
                    describe(h, r) + " reads " + describe(h, w1) +
                        " although " + describe(h, w2) +
                        " causally overwrote it"};
          }
          if (level == Level::kCCv ||
              (level == Level::kCM && !g.reaches(clk, w2, w1))) {
            seeds.push_back({w2, w1});
          }
        }
      }
    }
    seed_off[P] = seeds.size();
    if (level == Level::kCC) return {};

    if (level == Level::kCCv) {
      // Causal convergence: the conflict relation cf (w1 -> w2 when some
      // read of w2 has w1 on the same variable causally before it) together
      // with co must be acyclic. Only the latest co-visible write per
      // process matters: earlier ones reach it by program order.
      std::vector<Edge> with_cf = rf_edges;
      with_cf.insert(with_cf.end(), seeds.begin(), seeds.end());
      g.set_edges(with_cf);
      stats.explicit_edges = std::max(stats.explicit_edges, with_cf.size());
      if (!g.topo_order(order, &wit)) {
        return {BadPattern::kCyclicCF,
                "no single arbitration of concurrent writes: cycle through " +
                    describe(h, wit.first) + " and " +
                    describe(h, wit.second)};
      }
      return {};
    }

    const Clock::time_point hb0 = Clock::now();
    CheckResult hb = happens_before(src, rf_edges);
    hb_ms += ms_since(hb0);
    return hb;
  }

  // kCM: per-process happens-before fixpoint. The graph of HB_i is the
  // full known graph (operations outside the scope writes ∪ reads_i stay as
  // reachability conduits, which equals the old restrict-after-closure)
  // plus the derived edges of process i only.
  //
  // The fixpoint is incremental. Each process starts from phase A's clocks
  // (`clk`, over g's rf edges in the topological `order`) with its first
  // round's edges taken from phase A's scan (`seeds`), and keeps its
  // derived edges in a flat side list. A round pushes the growth of its new
  // edges forward in phase A's order: positional sweeps over a dirty set,
  // one more sweep for each edge that runs backward in that order. The
  // clocks stay the exact reachability fixpoint even when the new edges
  // close a cycle, so the round is cyclic iff some new edge w1 -> w2 has
  // w2 ⇝ w1; only then is the full graph rebuilt, for the Kahn/Tarjan
  // witness. The next round's edges come from rescanning only the reads of
  // i whose clock row grew — clocks only grow, so an unchanged row derives
  // nothing new. A process that derived edges restores phase A's clocks
  // before the next one starts.
  CheckResult happens_before(const std::vector<std::uint32_t>& src,
                             const std::vector<Edge>& rf_edges) {
    constexpr std::uint32_t kNone = UINT32_MAX;
    const std::size_t n = h.size();
    const std::size_t P = h.num_processes();
    const std::vector<std::uint32_t> rf_clk = clk;
    std::vector<std::uint32_t> pos(n);  // position in phase A's order
    for (std::size_t q = 0; q < n; ++q) {
      pos[order[q]] = static_cast<std::uint32_t>(q);
    }
    std::vector<std::uint8_t> dirty(n, 0);  // by position
    std::vector<std::uint32_t> grew_in(n, 0);  // epoch a row last grew in
    std::uint32_t epoch = 0;  // one per propagation, across processes
    std::vector<Edge> derived;  // process i's derived edges ...
    std::vector<std::uint32_t> next_out;  // ... chained per source through
    std::vector<std::uint32_t> first_out(n, kNone);  // these two lists
    std::uint32_t* const c = clk.data();
    std::size_t lo = n, hi = 0;  // dirty positions at or after the cursor
    std::size_t behind = n;      // lowest dirty position behind it
    std::size_t cursor = 0;
    // Join u's row into v's; a row that grew is marked dirty.
    auto join = [&](std::uint32_t u, std::uint32_t v) {
      const std::uint32_t* from = c + static_cast<std::size_t>(u) * P;
      std::uint32_t* row = c + static_cast<std::size_t>(v) * P;
      bool grew = false;
      for (std::size_t p = 0; p < P; ++p) {
        if (from[p] > row[p]) {
          row[p] = from[p];
          grew = true;
        }
      }
      if (!grew) return;
      grew_in[v] = epoch;
      const std::uint32_t q = pos[v];
      if (dirty[q]) return;
      dirty[q] = 1;
      if (q < cursor) {
        behind = std::min<std::size_t>(behind, q);
      } else {
        lo = std::min<std::size_t>(lo, q);
        hi = std::max<std::size_t>(hi, q);
      }
    };

    for (std::size_t pi = 0; pi < P; ++pi) {
      const History::Span sp = h.process_span(pi);
      derived.assign(seeds.begin() + seed_off[pi],
                     seeds.begin() + seed_off[pi + 1]);
      next_out.clear();
      for (std::size_t round_begin = 0; round_begin < derived.size();) {
        ++stats.hb_rounds;
        stats.explicit_edges =
            std::max(stats.explicit_edges, rf_edges.size() + derived.size());

        // Push the new edges' growth forward in phase A's order.
        ++epoch;
        for (std::size_t k = round_begin; k < derived.size(); ++k) {
          const Edge e = derived[k];
          next_out.push_back(first_out[e.from]);
          first_out[e.from] = static_cast<std::uint32_t>(k);
          join(e.from, e.to);
        }
        while (lo <= hi) {
          for (cursor = lo; cursor <= hi; ++cursor) {
            if (!dirty[cursor]) continue;
            dirty[cursor] = 0;
            const std::uint32_t v = order[cursor];
            g.for_each_succ(v, [&](std::uint32_t s) { join(v, s); });
            for (std::uint32_t k = first_out[v]; k != kNone;
                 k = next_out[k]) {
              join(v, derived[k].to);
            }
          }
          lo = behind;  // the next sweep runs over [behind, hi]
          behind = n;
        }
        cursor = 0;
        hi = 0;

        for (std::size_t k = round_begin; k < derived.size(); ++k) {
          if (!g.reaches(clk, derived[k].to, derived[k].from)) continue;
          std::vector<Edge> all = rf_edges;
          all.insert(all.end(), derived.begin(), derived.end());
          g.set_edges(all);
          std::pair<std::uint32_t, std::uint32_t> wit;
          CIM_CHECK(!g.topo_order(order, &wit));
          return {BadPattern::kCyclicHB,
                  "happens-before cycle for " +
                      cim::to_string(h.process(pi)) + " through " +
                      describe(h, wit.first) + " and " +
                      describe(h, wit.second)};
        }

        // Derivation rule: r ∈ reads_i(x) reads from w2, w1 writes x with
        // (w1, r) ∈ HB_i ⇒ (w1, w2) ∈ HB_i. The latest HB-visible write
        // per process subsumes the earlier ones (they reach it by po).
        round_begin = derived.size();
        wvp.rewind();
        for (std::size_t r = sp.begin; r < sp.end; ++r) {
          if (h.is_write(r) || grew_in[r] != epoch) continue;
          const std::uint32_t w2 = src[r];
          if (w2 == kInitSrc || w2 == kAmbiguous) continue;
          const std::uint32_t var = h.var_dense(r);
          const std::uint32_t* row = c + r * P;
          for (std::uint32_t p = 0; p < P; ++p) {
            const std::uint32_t w1 = wvp.advance(var, p, row[p]);
            if (w1 == kInitSrc || w1 == w2) continue;
            if (!g.reaches(clk, w1, w2)) derived.push_back({w1, w2});
          }
        }
      }

      // A process that derived nothing kept phase A's clocks, which phase
      // A's scan already cleared.
      if (derived.empty()) continue;

      // WriteHBInitRead for this process. The HB flavor of WriteCORead (a
      // read r of w1 with w1 ⇝ w2 ⇝ r in HB_i) cannot occur here: r was
      // last scanned under its final row, and there its latest HB-visible
      // writer w2 on each process equalled w1, already reached w1, or
      // derived w2 -> w1. So w2 ⇝ w1, and w1 ⇝ w2 as well would be an HB_i
      // cycle, which the round that closed it reported.
      wvp.rewind();
      for (std::size_t r = sp.begin; r < sp.end; ++r) {
        if (h.is_write(r)) continue;
        const std::uint32_t w1 = src[r];
        if (w1 != kInitSrc) {
          CIM_DCHECK(w1 == kAmbiguous || !overwritten(r, w1));
          continue;
        }
        const std::uint32_t w = first_visible_write(h.var_dense(r), c + r * P);
        if (w == kInitSrc) continue;
        return {BadPattern::kWriteHBInitRead,
                describe(h, r) + " returns the initial value but, for " +
                    cim::to_string(h.process(pi)) + ", " + describe(h, w) +
                    " happens before it"};
      }

      std::copy(rf_clk.begin(), rf_clk.end(), clk.begin());
      for (const Edge& e : derived) first_out[e.from] = kNone;
    }
    return {};
  }
};

/// Phase B: residual constraints. Recompute the known-graph clocks, prune
/// each ambiguous read's candidate set, and backtrack over what is left,
/// evaluating at most `budget` complete reads-from assignments.
CheckResult residual_search(Engine& e, Level level, std::size_t budget) {
  e.g.set_edges(e.base_edges);
  e.g.topo_order(e.order, nullptr);
  e.g.clocks(e.order, e.clk);
  const std::vector<std::uint32_t> base_clk = e.clk;
  for (AmbRead& a : e.amb) {
    std::vector<std::uint32_t> visible, rest;
    bool allow_init = false;
    for (const std::uint32_t w : a.cands) {
      if (w == kInitSrc) {
        allow_init = true;
        continue;
      }
      // A writer causally after the read would force a cycle under every
      // extension of the known graph: prune.
      if (e.g.reaches(base_clk, a.read, w)) continue;
      (e.g.reaches(base_clk, w, a.read) ? visible : rest).push_back(w);
    }
    // Prefer the latest already-visible writer (the assignment a real store
    // would have produced), then ⊥ for initial-value reads, then the
    // concurrent writers.
    std::sort(visible.begin(), visible.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return e.g.seq1(x) > e.g.seq1(y);
              });
    a.cands = std::move(visible);
    if (allow_init) a.cands.push_back(kInitSrc);
    a.cands.insert(a.cands.end(), rest.begin(), rest.end());
    if (a.cands.empty()) {
      return {BadPattern::kCyclicCO,
              describe(e.h, a.read) +
                  ": every admissible writer of its value is causally after "
                  "the read"};
    }
  }

  // Depth-first enumeration of complete assignments, budgeted.
  std::vector<std::uint32_t> src = e.rf;
  std::vector<Edge> edges = e.base_edges;
  CheckResult first_fail;
  bool exhausted = false;

  // Iterative odometer over candidate positions.
  std::vector<std::size_t> pos(e.amb.size(), 0);
  while (true) {
    if (e.stats.assignments_tried >= budget) {
      exhausted = true;
      break;
    }
    edges.resize(e.base_edges.size());
    for (std::size_t k = 0; k < e.amb.size(); ++k) {
      const std::uint32_t w = e.amb[k].cands[pos[k]];
      src[e.amb[k].read] = w;
      if (w != kInitSrc) edges.push_back({w, e.amb[k].read});
    }
    ++e.stats.assignments_tried;
    CheckResult attempt = e.evaluate(src, edges, level);
    if (attempt.ok()) return attempt;
    if (first_fail.ok()) first_fail = std::move(attempt);
    // Advance the odometer.
    std::size_t k = 0;
    for (; k < pos.size(); ++k) {
      if (++pos[k] < e.amb[k].cands.size()) break;
      pos[k] = 0;
    }
    if (k == pos.size()) break;  // every assignment evaluated
  }

  if (exhausted) {
    return {BadPattern::kResidualLimit,
            "residual constraint search exceeded " + std::to_string(budget) +
                " reads-from assignments over " +
                std::to_string(e.amb.size()) +
                " ambiguous reads; verdict unknown"};
  }
  first_fail.detail +=
      " [no admissible reads-from assignment avoids a bad pattern; " +
      std::to_string(e.stats.assignments_tried) + " tried]";
  return first_fail;
}

}  // namespace

std::optional<Relation> CausalChecker::causal_order(
    const History& history) const {
  Engine e(history);
  if (!e.fail.ok() || !e.amb.empty()) return std::nullopt;
  e.g.set_edges(e.base_edges);
  if (!e.g.topo_order(e.order, nullptr)) return std::nullopt;
  e.g.clocks(e.order, e.clk);
  const std::size_t n = history.size();
  Relation co(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (e.g.reaches(e.clk, static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(j))) {
        co.set(i, j);
      }
    }
  }
  return co;
}

CheckResult CausalChecker::check(const History& history, Level level) const {
  const Clock::time_point t0 = Clock::now();
  Engine e(history);
  e.stats.resolve_ms = ms_since(t0);
  auto done = [&e](CheckResult r) {
    r.stats = e.stats;
    return r;
  };
  if (!e.fail.ok()) return done(std::move(e.fail));

  // Phase A: the known-edge pass. Ambiguous reads contribute no edges and
  // are skipped by the scans, so co here under-approximates co under every
  // admissible assignment — failures are definite, and when the history has
  // no ambiguity (the paper's distinct-value regime) this is the whole
  // check.
  const Clock::time_point t1 = Clock::now();
  CheckResult res = e.evaluate(e.rf, e.base_edges, level);
  e.stats.hb_ms = e.hb_ms;
  e.stats.phase_a_ms = ms_since(t1) - e.hb_ms;
  if (!res.ok() || e.amb.empty()) return done(std::move(res));

  const Clock::time_point t2 = Clock::now();
  res = residual_search(e, level, options_.residual_budget);
  e.stats.residual_ms = ms_since(t2);
  return done(std::move(res));
}

}  // namespace cim::chk
