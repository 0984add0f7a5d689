// Per-write causal spans: one write's propagation tree, folded by WriteId.
//
// Every v3 lifecycle event carries the originating write id, so grouping by
// `wid` recovers, for each write: where it was issued, when each replica
// applied it (and how long it waited for causal dependencies), and every
// IS-link hop it took across the federation. The index has two feeds:
//
//  * offline, observe(ParsedTraceEvent) replays a JSONL trace (cim_trace,
//    the Perfetto export, trace_merge) and fills every field of a span;
//  * live, on_write_issue / on_update_applied take the typed
//    mcs::MemoryObserver hooks through mcs::SpanFeed (mcs/span_feed.h).
//    Those hooks carry only issue and apply, so a live-fed index leaves
//    origin_done_t, pair_outs, pair_ins and wait_ns empty. It also grows
//    without bound (one span per write, one entry per apply), so it is
//    meant for simulator runs, not for a long-lived mesh node.
//
// From the spans it derives the per-stage latency breakdown Section 6 of
// the paper reasons about:
//
//   origin_apply — write_issue → write_done at the origin process
//   fanout_intra — write_issue → update_applied at replicas of the origin's
//                  own system (origin excluded)
//   causal_wait  — time an update sat buffered waiting for its causal
//                  dependencies (the wait_ns field of update_applied)
//   is_hop       — per-IS-link transfer time (the hop_ns field of pair_in)
//   remote_apply — write_issue → update_applied at replicas of *other*
//                  systems (the end-to-end visibility latency)
//   propagation  — origin IS-propagation → pair_in at each receiving
//                  IS-process; the exact samples of isc.propagation_latency
//
// and answers the visibility questions of the Section-6 experiments: the
// paper's latency `l` is "the time until a value written is visible in any
// other process", so a write's visibility towards a set of target replicas
// is the latest first apply among them minus its issue time. The origin
// counts as visible at its issue, and writes whose origin issue the index
// never saw are skipped.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "obs/trace_read.h"
#include "sim/time.h"

namespace cim::obs {

struct WriteSpan {
  WriteId wid;
  VarId var;
  Value value = kInitValue;
  bool origin_seen = false;      // write_issue observed at wid.origin()
  std::int64_t issue_t = -1;     // write_issue at the origin, ns
  std::int64_t origin_done_t = -1;  // write_done at the origin, ns

  struct Apply {
    ProcId proc;
    std::int64_t t = 0;
    std::int64_t wait_ns = -1;   // -1: no causal wait recorded
  };
  struct PairOut {
    ProcId proc;
    std::int64_t t = 0;
    std::uint64_t link = 0;
  };
  struct PairIn {
    ProcId proc;
    std::int64_t t = 0;
    std::int64_t hop_ns = 0;
    std::int64_t prop_ns = 0;
  };
  std::vector<Apply> applies;
  std::vector<PairOut> pair_outs;
  std::vector<PairIn> pair_ins;

  /// Last time the write was observed anywhere (applies/hops/issue).
  std::int64_t completion_t() const;
};

class SpanIndex {
 public:
  /// Feed one event read back from JSONL.
  void observe(const ParsedTraceEvent& ev);
  /// Convenience: index every event parsed from a file.
  void index(const std::vector<ParsedTraceEvent>& events);

  /// Typed ingest: `proc` issued write `wid`, w(var)value, at `t` ns. An
  /// IS-process re-issuing a foreign write passes the origin's wid; only
  /// the issue at wid.origin() anchors the span.
  void on_write_issue(std::int64_t t, ProcId proc, WriteId wid, VarId var,
                      Value value);
  /// Typed ingest: `proc`'s apply pipeline applied `wid` at `t` ns after a
  /// causal wait of `wait_ns` (-1: none recorded).
  void on_update_applied(std::int64_t t, ProcId proc, WriteId wid,
                         std::int64_t wait_ns);

  const WriteSpan* span(WriteId wid) const;
  /// Write ids in first-seen order.
  const std::vector<WriteId>& wids() const { return order_; }
  std::size_t size() const { return order_.size(); }
  std::uint64_t events_seen() const { return events_seen_; }

  // ---- visibility queries (see the header comment for the rules) --------
  /// First time `proc` applied `wid` (its issue time at the origin);
  /// nullopt if it never did or the origin issue was not seen.
  std::optional<sim::Time> apply_time(WriteId wid, ProcId proc) const;
  /// Latency until `wid` was visible at every one of `targets`; nullopt if
  /// some target never applied it or the origin issue was not seen.
  std::optional<sim::Duration> visibility(
      WriteId wid, const std::vector<ProcId>& targets) const;
  /// Worst visibility over every write whose origin issue was seen; nullopt
  /// if any of them missed a target (a liveness failure) or there are none.
  std::optional<sim::Duration> worst_visibility(
      const std::vector<ProcId>& targets) const;
  /// Visibility of every write that reached all `targets`, in first-seen
  /// order.
  std::vector<sim::Duration> visibilities(
      const std::vector<ProcId>& targets) const;

  /// Per-stage latency sample sets (see the header comment for stage
  /// definitions). Feed each vector to obs::summarize for percentiles.
  struct StageBreakdown {
    std::vector<sim::Duration> origin_apply;
    std::vector<sim::Duration> fanout_intra;
    std::vector<sim::Duration> causal_wait;
    std::vector<sim::Duration> is_hop;
    std::vector<sim::Duration> remote_apply;
    std::vector<sim::Duration> propagation;
  };
  StageBreakdown stages() const;

  /// One JSON object per write (the `cim_trace spans` output), in
  /// first-seen order.
  void write_spans_jsonl(std::ostream& os) const;

 private:
  WriteSpan& span_for(WriteId wid);
  void on_write_done(std::int64_t t, ProcId proc, WriteId wid);
  void on_pair_out(std::int64_t t, ProcId proc, WriteId wid,
                   std::uint64_t link);
  void on_pair_in(std::int64_t t, ProcId proc, WriteId wid,
                  std::int64_t hop_ns, std::int64_t prop_ns);

  std::unordered_map<WriteId, std::size_t> by_wid_;
  std::vector<WriteSpan> spans_;
  std::vector<WriteId> order_;
  std::uint64_t events_seen_ = 0;
};

}  // namespace cim::obs
