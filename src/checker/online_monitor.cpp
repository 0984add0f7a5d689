#include "checker/online_monitor.h"

#include <algorithm>

namespace cim::chk {

namespace {

// Retention caps; hitting one forgets the oldest entries.
constexpr std::size_t kMaxWritesPerVar = 1 << 10;  // per (origin, var) seqs
constexpr std::size_t kMaxViolations = 256;        // retained records

}  // namespace

OnlineMonitor::OnlineMonitor(obs::TraceSink* trace,
                             obs::MetricsRegistry* metrics)
    : trace_(trace) {
  if (metrics != nullptr) {
    m_violations_ = &metrics->counter("checker.violations");
  }
}

void OnlineMonitor::observe(const obs::ParsedTraceEvent& ev) {
  if (ev.cat == "mcs") {
    ProcId proc{};
    if (!ev.field_proc("proc", proc)) return;
    const VarId var{static_cast<std::uint32_t>(ev.field_int("var"))};
    if (ev.name == "write_issue") {
      // read_done records carry no wid: remember which write a value names
      // (the first issue wins; an IS-process re-issue carries the same wid).
      const WriteId wid = ev.wid();
      if (wid.valid()) replay_wids_.try_emplace(ev.field_int("val"), wid);
      on_write_issue(ev.t, proc, wid, var);
    } else if (ev.name == "read_done") {
      const auto hit = replay_wids_.find(ev.field_int("val"));
      on_read_done(ev.t, proc, var,
                   hit != replay_wids_.end() ? hit->second : WriteId{});
    }
  } else if (ev.cat == "proto" && ev.name == "update_applied") {
    ProcId proc{};
    if (!ev.field_proc("proc", proc)) return;
    on_update_applied(ev.t, proc, ev.wid());
  }
}

void OnlineMonitor::learn(ProcId proc, WriteId wid) {
  std::vector<Known>& known = knows_[pack(proc)];
  const std::uint32_t origin = pack(wid.origin());
  for (Known& k : known) {
    if (k.origin == origin) {
      k.seq = std::max(k.seq, wid.seq());
      return;
    }
  }
  known.push_back(Known{origin, wid.seq()});
}

void OnlineMonitor::on_write_issue(std::int64_t, ProcId proc, WriteId wid,
                                   VarId var) {
  ++events_seen_;
  if (!wid.valid()) return;
  // Record the write (idempotent: an IS-process re-issuing a foreign write
  // carries the same wid).
  std::deque<std::uint32_t>& seqs = writes_[key(pack(wid.origin()), var.value)];
  if (seqs.empty() || seqs.back() < wid.seq()) {
    seqs.push_back(wid.seq());
    while (seqs.size() > kMaxWritesPerVar) seqs.pop_front();
  }
  // The origin knows its own writes; re-issues elsewhere teach nothing.
  if (proc == wid.origin()) learn(proc, wid);
}

void OnlineMonitor::on_read_done(std::int64_t t, ProcId proc, VarId var,
                                 WriteId got) {
  ++events_seen_;
  // Read monotonicity.
  const std::uint64_t rk = key(pack(proc), var.value);
  auto prev = last_read_.find(rk);
  if (prev != last_read_.end() && got.valid() &&
      prev->second.origin() == got.origin() &&
      got.seq() < prev->second.seq()) {
    report(Violation{"read_regress", t, proc, var, got, prev->second.seq(),
                     got.seq()});
  }
  last_read_[rk] = got;

  // Writes-into order. The newest write to `var` among those the reader
  // causally knows: for each origin o, the largest seq s* with (o wrote var
  // at s*) and s* <= the reader's knowledge of o. Reading anything older
  // than s* (the initial value, or an overwritten write of the same origin)
  // violates writes-into order.
  if (const auto kn = knows_.find(pack(proc)); kn != knows_.end()) {
    for (const Known& k : kn->second) {
      const auto ws = writes_.find(key(k.origin, var.value));
      if (ws == writes_.end()) continue;
      // seqs are ascending: find the largest <= the known seq.
      const std::deque<std::uint32_t>& seqs = ws->second;
      auto it = std::upper_bound(seqs.begin(), seqs.end(), k.seq);
      if (it == seqs.begin()) continue;
      const std::uint32_t star = *std::prev(it);
      const bool same_origin = got.valid() && pack(got.origin()) == k.origin;
      const bool stale = !got.valid() || (same_origin && got.seq() < star);
      if (stale) {
        const ProcId origin{SystemId{std::uint16_t(k.origin >> 16)},
                            std::uint16_t(k.origin & 0xFFFF)};
        report(Violation{"stale_read", t, proc, var,
                         got.valid() ? got : WriteId::make(origin, star),
                         star, got.valid() ? got.seq() : 0});
      }
    }
  }

  if (got.valid()) learn(proc, got);
}

void OnlineMonitor::on_update_applied(std::int64_t t, ProcId proc,
                                      WriteId wid) {
  ++events_seen_;
  if (!wid.valid()) return;
  Applied& last = applied_[key(pack(proc), pack(wid.origin()))];
  // Equal seq is benign (AW-seq re-applies pre-applied own writes); an
  // inversion at one virtual instant is benign too (atomic batch apply, no
  // read can observe the scrambled intermediate state).
  if (wid.seq() < last.seq && t > last.t) {
    report(
        Violation{"fifo_regress", t, proc, VarId{}, wid, last.seq, wid.seq()});
  }
  if (wid.seq() > last.seq) last = Applied{wid.seq(), t};
}

void OnlineMonitor::report(Violation v) {
  ++violation_count_;
  if (m_violations_ != nullptr) m_violations_->inc();
  CIM_TRACE(trace_, sim::Time{v.t}, obs::TraceCategory::kChk, "violation",
            {{"kind", v.kind},
             {"proc", v.proc},
             {"var", v.var},
             {"wid", v.wid},
             {"expect", std::uint64_t{v.expected_seq}},
             {"got", std::uint64_t{v.got_seq}}});
  if (violations_.size() < kMaxViolations) violations_.push_back(v);
}

}  // namespace cim::chk
