// Causal-consistency verification.
//
// The paper (Definitions 1-5) uses Ahamad et al.'s *causal memory* (CM):
// a computation α is causal iff for every process i there is a *causal view*
// β_i — a permutation of α_i (all writes plus i's reads) that is legal and
// preserves the causal order ⇝ (the transitive closure of program order and
// writes-into order).
//
// Deciding this directly involves searching for a permutation; for a fixed
// reads-from relation, CM admits a polynomial characterization by *bad
// patterns* (Bouajjani, Enea, Guerraoui, Hamza, "On verifying causal
// consistency", POPL 2017, Theorem for CM): α is causal iff it exhibits
// none of
//
//   CyclicCO         — co := (po ∪ rf)+ has a cycle
//   ThinAirRead      — a read returns a value never written to that variable
//   WriteCOInitRead  — a read returns the initial value although some write
//                      to the variable is co-before the read
//   WriteCORead      — a read returns the value of w1 although another write
//                      w2 to the same variable satisfies w1 →co w2 →co read
//   CyclicHB         — the per-process happens-before fixpoint is cyclic
//   WriteHBInitRead  — like WriteCOInitRead but under the per-process
//                      happens-before
//
// where, for process i, HB_i is the least transitive relation containing co
// restricted to (writes ∪ reads_i) and closed under: if r ∈ reads_i(x) reads
// from w2 and w1 is another write to x with (w1, r) ∈ HB_i, then
// (w1, w2) ∈ HB_i.
//
// The engine is the sparse dependency-graph architecture of graph.h: known
// po/rf edges as adjacency lists, Kahn toposort + Tarjan SCC for cycles,
// vector-clock reachability for the pattern scans — O((n + m)·P) per pass
// instead of the old dense O(n²) matrices.
//
// **The distinct-value assumption is gone.** The paper assumes each value is
// written at most once per variable, which makes reads-from a function of
// the read; this checker instead treats a repeated (variable, value) pair as
// a *constraint source*: α is causal iff SOME admissible reads-from
// assignment (each read of value v bound to one write of v to the same
// variable; reads of the initial value optionally bound to no write) yields
// a pattern-free history. Violations found using the unambiguous edges alone
// are definite under every assignment (adding edges only grows co), so
// ambiguity costs nothing on the fast path; only the residual ambiguous
// reads are resolved by a budgeted backtracking search over pruned candidate
// sets. See docs/CHECKER.md for the full semantics and complexity story.
//
// SearchChecker (search_checker.h) decides the definition directly by
// enumerating assignments and backtracking; property tests cross-validate
// the two on random histories, including histories with repeated values.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "checker/history.h"
#include "checker/relation.h"

namespace cim::chk {

enum class BadPattern {
  kNone,
  kCyclicCO,
  kThinAirRead,
  kWriteCOInitRead,
  kWriteCORead,
  kCyclicHB,
  kWriteHBInitRead,
  kCyclicCF,         // CCv only: conflict/arbitration cycle
  kResidualLimit,    // residual-constraint budget exhausted: verdict unknown
};

const char* to_string(BadPattern p);

/// Consistency model to verify.
enum class Level {
  kCC,   // weak causal consistency: first four patterns only
  kCM,   // causal memory (the paper's model): adds the per-process HB patterns
  kCCv,  // causal convergence: adds CyclicCF — all replicas must agree on one
         // arbitration of concurrent same-variable writes. None of the
         // protocols here implement arbitration, so CCv is expected to FAIL
         // on executions where readers order concurrent writes differently;
         // the level exists to demonstrate that separation.
};

/// Work counters and per-phase wall times from one check, for benches and
/// the cim_trace summary. The counts are deterministic; the *_ms fields are
/// wall-clock.
struct CheckStats {
  std::size_t ops = 0;
  std::size_t explicit_edges = 0;    // rf ∪ derived ∪ cf edges materialized
  std::size_t ambiguous_reads = 0;   // reads with >1 admissible writer
  std::size_t assignments_tried = 0; // complete rf assignments evaluated
  std::size_t hb_rounds = 0;  // kCM derivation rounds that derived an edge,
                              // summed over processes and passes
  double resolve_ms = 0;   // graph, write index and reads-from resolution
  double phase_a_ms = 0;   // phase A's co pass (clocks and co scans)
  double hb_ms = 0;        // phase A's per-process HB fixpoints (kCM)
  double residual_ms = 0;  // phase B: pruning plus every residual pass
};

struct CheckResult {
  BadPattern pattern = BadPattern::kNone;
  std::string detail;  // human-readable witness description
  CheckStats stats{};  // initialized here, so {pattern, detail} may omit it

  bool ok() const { return pattern == BadPattern::kNone; }
  explicit operator bool() const { return ok(); }
};

struct CheckOptions {
  /// Maximum complete reads-from assignments the residual search evaluates
  /// before returning kResidualLimit (only reachable when repeated values
  /// make reads-from ambiguous AND the fast path was inconclusive).
  std::size_t residual_budget = 256;
};

class CausalChecker {
 public:
  CausalChecker() = default;
  explicit CausalChecker(CheckOptions options) : options_(options) {}

  /// Verify `history` against the model. O((n+m)·P) for kCC/kCCv; kCM adds
  /// one incremental happens-before fixpoint per process with reads, whose
  /// rounds rescan only the reads and re-join only the clock rows that grew
  /// (docs/CHECKER.md, "Complexity").
  CheckResult check(const History& history, Level level = Level::kCM) const;

  /// The causal order co = (po ∪ rf)+ of a history as a dense Relation,
  /// exposed for tests and the latency experiments. Returns nullopt when co
  /// is cyclic, a read is thin-air, or reads-from is ambiguous (repeated
  /// values read back) — callers needing the ambiguous case run check().
  std::optional<Relation> causal_order(const History& history) const;

 private:
  CheckOptions options_;
};

}  // namespace cim::chk
