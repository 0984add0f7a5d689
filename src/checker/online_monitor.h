// Online causal-consistency monitor: decides the kCC bad patterns of
// causal_checker.h (Bouajjani et al.) at every read, *while the run is
// still executing*, from a causal-past frontier — unlike CausalChecker,
// which needs the complete history afterwards. The same rule runs offline:
// check(History) replays a recorded history through it.
//
// The monitor consumes two typed facts: a write issued (on_write_issue) and
// a read done (on_read_done), each naming its WriteId. Live,
// isc::Federation forwards them from the mcs::MemoryObserver hooks, so the
// monitor runs whether or not tracing is enabled; observe() replays the
// same facts from a parsed trace (`mcs`/`write_issue`, `mcs`/`read_done`).
//
// The rule. ⇝ is the transitive closure of program order and writes-into
// order (Definitions 1-5).
//
//  * Process frontier. Each process p keeps F_p: per write origin, the
//    highest seq in p's causal past. Program order is part of ⇝, so F_p[o]
//    = s stands for all of o's writes #1..#s. F_p grows with p's own writes
//    and joins the stored frontier of every write p reads.
//  * Write frontier. Each write stores its writer's frontier at issue. A
//    write seen only as an IS-process re-issue (a mesh node sees foreign
//    writes so) stores just its own origin and seq.
//  * Violation. A read of x by p returning w1 is WriteCORead iff, for some
//    origin o, the latest write w2 != w1 to x by o inside F_p has w1 in its
//    own frontier (w1 ⇝ w2 ⇝ read). A read of the initial value is
//    WriteCOInitRead iff such a w2 exists at all. The latest write per
//    origin suffices: an earlier one is program-order-before it, so if w1
//    precedes that one, it precedes the latest too.
//
// Where the monitor sees every write's issue at its origin — every
// simulator isc::Federation — the frontiers are exactly the causal pasts,
// and the verdict equals CausalChecker's kCC verdict on α^T (reads follow
// their writes in real time, so CyclicCO and ThinAirRead cannot arise
// live). In a mesh node a foreign write's frontier is only its own entry,
// so the monitor knows less than ⇝: every violation it reports is real,
// but it may miss some.
//
// Each violation names the read (proc, var, t), the write it returned (w1)
// and the write it missed (w2), and carries the session guarantee the
// witness breaks (Terry et al.), the first that applies of:
//   read-your-writes     — w2 is the reader's own write;
//   monotonic-reads      — the reader's previous read of x returned w2 or
//                          a write with w2 in its frontier;
//   monotonic-writes     — w1 and w2 have one writer, or the reader's past
//                          holds a later write of w2's writer;
//   writes-follow-reads  — otherwise: the reader saw w2 only through a
//                          write whose writer had read it.
//
// Bounded state. Per (origin, variable) the monitor keeps the last
// kWritesPerLog writes with their frontiers; plus a frontier and a
// last-read table per process. With P processes, O origins and V
// variables that is at most O·V·kWritesPerLog rows of O + 1 words, plus
// P·(O + V) words — no term grows with the run's length (retained_writes()
// counts the rows). A read that needs a write already dropped degrades to
// less knowledge, never to a false report: w1's frontier is taken as its
// own entry alone, and a w2 that fell out of the log is not found.
//
// Every violation is recorded, emitted as a `chk`/`violation` trace event
// (when the sink traces) and counted in the `checker.violations` metric the
// moment the offending read is observed.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "checker/causal_checker.h"
#include "checker/history.h"
#include "common/ids.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_read.h"

namespace cim::chk {

struct MonitorOptions {
  bool enabled = false;  // run a monitor in the federation
};

/// The session guarantee a violation's witness breaks (see above).
enum class Guarantee : std::uint8_t {
  kNone,  // CyclicCO / ThinAirRead from check(History): no witness
  kReadYourWrites,
  kMonotonicReads,
  kMonotonicWrites,
  kWritesFollowReads,
};

const char* to_string(Guarantee g);

struct Violation {
  /// kWriteCORead | kWriteCOInitRead; check(History) adds kCyclicCO and
  /// kThinAirRead.
  BadPattern pattern = BadPattern::kNone;
  Guarantee label = Guarantee::kNone;
  std::int64_t t = 0;  // virtual time of the read, ns (check(): its index)
  ProcId proc;         // the reader
  VarId var;
  WriteId w1;  // the write the read returned (invalid: the initial value)
  WriteId w2;  // a write to var with w1 ⇝ w2 ⇝ the read
};

class OnlineMonitor {
 public:
  /// Write entries kept per (origin, variable) log.
  static constexpr std::size_t kWritesPerLog = 256;

  /// Violations are reported as `violation` events on `trace` and on the
  /// `checker.violations` counter of `metrics`. Either pointer may be null.
  explicit OnlineMonitor(obs::TraceSink* trace = nullptr,
                         obs::MetricsRegistry* metrics = nullptr);

  // ---- the two facts the monitor consumes (times in virtual ns) ----------
  /// `proc` issued write `wid` to `var`: the origin itself, or an
  /// IS-process re-issuing a propagated write under the origin's wid.
  void on_write_issue(std::int64_t t, ProcId proc, WriteId wid, VarId var);
  /// A read of `var` returned write `got` (invalid: the initial value).
  void on_read_done(std::int64_t t, ProcId proc, VarId var, WriteId got);

  /// Replay one parsed trace event (cim_trace check): the two facts above
  /// are fed in, a read's write found by its value; every other event is
  /// ignored.
  void observe(const obs::ParsedTraceEvent& ev);

  /// Replay a recorded history through a fresh monitor and return its
  /// violations (capped as violations()). Writes take WriteIds by program
  /// order; a read returns the first write of its (variable, value) in the
  /// history. The replay walks po ∪ rf: each process advances while its
  /// next op is a write or a read whose write was already issued, one op
  /// per process per round; when no process can advance, a stuck read
  /// reports kThinAirRead (no write of its value) or kCyclicCO. On a
  /// history with distinct written values the verdict equals
  /// CausalChecker's kCC verdict.
  static std::vector<Violation> check(const History& history);

  /// Facts consumed so far, live or replayed.
  std::uint64_t events_seen() const { return events_seen_; }
  std::uint64_t violation_count() const { return violation_count_; }
  /// Retained violation records, oldest first (capped; violation_count()
  /// keeps the true total).
  const std::vector<Violation>& violations() const { return violations_; }
  /// Write entries currently held, over all (origin, variable) logs.
  std::size_t retained_writes() const;

 private:
  // The last kWritesPerLog writes of one origin to one variable, ascending
  // seq, as rows of `width` words — the seq, then the write's frontier by
  // dense origin, zero-padded — in one buffer used as a ring whose oldest
  // row sits at `head` once it is full.
  struct Log {
    std::vector<std::uint32_t> words;
    std::uint32_t width = 1;
    std::uint32_t rows = 0;
    std::uint32_t head = 0;

    const std::uint32_t* row(std::size_t i) const {
      return &words[(head + i) % kWritesPerLog * width];
    }
    /// The row with the largest seq <= `seq`, or null.
    const std::uint32_t* latest_at_most(std::uint32_t seq) const;
    /// A zeroed row holding `seq`, for a write newer than every row and a
    /// frontier of `frontier_width` entries (the oldest row is dropped when
    /// the log is full).
    std::uint32_t* push(std::uint32_t seq, std::size_t frontier_width);
  };
  struct Proc {
    std::vector<std::uint32_t> frontier;  // by dense origin
    std::vector<WriteId> last_read;       // by dense variable
  };

  std::uint32_t proc_index(ProcId p);
  std::uint32_t var_index(VarId v);
  Log& log(std::uint32_t var, std::uint32_t origin);
  void report(Violation v);

  obs::TraceSink* trace_;
  obs::Counter* m_violations_ = nullptr;

  std::unordered_map<std::uint32_t, std::uint32_t> proc_index_;  // packed id
  std::vector<ProcId> procs_;  // dense index -> id
  std::vector<Proc> proc_state_;
  std::unordered_map<std::uint32_t, std::uint32_t> var_index_;
  std::vector<std::vector<Log>> logs_;  // [dense var][dense origin]

  // observe() only: value -> the first write seen issued with it.
  std::unordered_map<Value, WriteId> replay_wids_;

  std::uint64_t events_seen_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace cim::chk
