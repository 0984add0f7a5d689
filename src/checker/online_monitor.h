// Online causal-consistency monitor: a bounded-memory streaming consumer of
// the write lifecycle that flags consistency violations *while the run is
// still executing* — unlike the offline checkers (causal_checker.h,
// search_checker.h), which need the complete history afterwards.
//
// The monitor is fed three typed facts, each carrying the originating
// WriteId where one exists: a write issued (on_write_issue), an update
// applied by a protocol's apply pipeline (on_update_applied) and a read
// returned (on_read_done). Live, isc::Federation forwards them from the
// mcs::MemoryObserver hooks, so the monitor runs whether or not tracing is
// enabled; offline, observe() replays the same facts from a parsed trace
// (`mcs`/`write_issue`, `proto`/`update_applied`, `mcs`/`read_done`). It
// checks:
//
//   fifo_regress — per-writer FIFO application order. A replica applied
//     write #s of some origin after already applying #s' > s from the same
//     origin, with virtual time elapsed in between. Program order is part
//     of causal order, so an *observable* inversion violates causality.
//     Two benign shapes are excluded: re-applying the same seq (the AW-seq
//     protocol pre-applies its own writes and re-applies them at their
//     total-order position), and inversions at one virtual instant (the
//     lazy-batch protocol applies a whole batch atomically — scrambled
//     inside, but no read can interleave, which is exactly why a single
//     lazy-batch system stays causal even though it lacks Causal Updating).
//   read_regress — per-variable read monotonicity. Two consecutive reads of
//     a variable by one process returned writes of the same origin with
//     decreasing sequence numbers: the process travelled back in time.
//   stale_read — writes-into order (the paper's Section 5 counterexample).
//     A process that has observed write #k of origin o (by reading any of
//     o's values, or by being o) reads a variable x and gets a value
//     causally *older* than o's latest write to x among #1..#k — either the
//     initial value, or an overwritten same-origin write. The Claim 4
//     history (w(x)1 · w(y)2 at p, then r(y)2 · r(x)0 elsewhere) is exactly
//     this.
//
// Detection is a sound under-approximation: sequence-number knowledge is
// propagated only by direct reads (no transitive closure through third
// processes), so every reported violation is real, but not every violation
// is reported.
//
// A read names the write it returned: live, the replica keeps each value's
// WriteId and the read hook passes it on, so the verdicts never depend on
// values. Only the trace replay needs the distinct-value premise (the
// repo-wide workload convention): `read_done` records carry no wid, so
// observe() maps a read's value back to its write through a value -> wid
// map filled from `write_issue` records. That map is uncapped; it grows
// with the trace.
//
// Every violation is recorded, emitted as a `chk`/`violation` trace event
// (when the sink traces) and counted in the `checker.violations` metric the
// moment the offending event is observed. The live state is bounded: each
// (origin, var) sequence list is capped (online_monitor.cpp) and forgets its
// oldest entries when full (reducing detection power, never soundness);
// every other table is keyed by processes and variables.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_read.h"

namespace cim::chk {

struct MonitorOptions {
  bool enabled = false;  // run a monitor in the federation
};

struct Violation {
  const char* kind = nullptr;  // "fifo_regress" | "read_regress" | "stale_read"
  std::int64_t t = 0;          // virtual time of the offending event, ns
  ProcId proc;                 // process at which the violation surfaced
  VarId var;
  WriteId wid;                 // offending write (invalid for init reads)
  std::uint32_t expected_seq = 0;  // newest same-origin seq the proc knew
  std::uint32_t got_seq = 0;       // seq actually observed (0 = init)
};

class OnlineMonitor {
 public:
  /// Violations are reported as `violation` events on `trace` and on the
  /// `checker.violations` counter of `metrics`. Either pointer may be null.
  explicit OnlineMonitor(obs::TraceSink* trace = nullptr,
                         obs::MetricsRegistry* metrics = nullptr);

  // ---- the three facts the monitor consumes (times in virtual ns) --------
  void on_write_issue(std::int64_t t, ProcId proc, WriteId wid, VarId var);
  void on_update_applied(std::int64_t t, ProcId proc, WriteId wid);
  /// A read of `var` returned write `got` (invalid: the initial value).
  void on_read_done(std::int64_t t, ProcId proc, VarId var, WriteId got);

  /// Replay one parsed trace event (cim_trace check): the three facts above
  /// are fed in, a read's write found by its value; every other event is
  /// ignored.
  void observe(const obs::ParsedTraceEvent& ev);

  /// Facts consumed so far, live or replayed.
  std::uint64_t events_seen() const { return events_seen_; }
  std::uint64_t violation_count() const { return violation_count_; }
  /// Retained violation records, oldest first (capped; violation_count()
  /// keeps the true total).
  const std::vector<Violation>& violations() const { return violations_; }

 private:
  static std::uint64_t key(std::uint32_t a, std::uint32_t b) {
    return (std::uint64_t(a) << 32) | b;
  }
  static std::uint32_t pack(ProcId p) {
    return (std::uint32_t(p.system.value) << 16) | p.index;
  }

  void learn(ProcId proc, WriteId wid);
  void report(Violation v);

  obs::TraceSink* trace_;
  obs::Counter* m_violations_ = nullptr;

  // (origin, var) -> ascending seqs of that origin's writes to var.
  std::unordered_map<std::uint64_t, std::deque<std::uint32_t>> writes_;
  // proc -> (origin, highest seq of origin the proc has read or issued),
  // in the order the proc first learned of each origin.
  struct Known {
    std::uint32_t origin;  // pack()ed
    std::uint32_t seq;
  };
  std::unordered_map<std::uint32_t, std::vector<Known>> knows_;
  // (proc, var) -> write returned by the proc's last read of var.
  std::unordered_map<std::uint64_t, WriteId> last_read_;
  // (replica, origin) -> highest seq applied at the replica, and when.
  struct Applied {
    std::uint32_t seq = 0;
    std::int64_t t = 0;
  };
  std::unordered_map<std::uint64_t, Applied> applied_;

  // observe() only: value -> the first write seen issued with it.
  std::unordered_map<Value, WriteId> replay_wids_;

  std::uint64_t events_seen_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace cim::chk
