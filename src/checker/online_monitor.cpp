#include "checker/online_monitor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

namespace cim::chk {

namespace {

constexpr std::size_t kMaxViolations = 256;  // retained records

std::uint32_t pack(ProcId p) {
  return (std::uint32_t(p.system.value) << 16) | p.index;
}

}  // namespace

const char* to_string(Guarantee g) {
  switch (g) {
    case Guarantee::kNone: return "-";
    case Guarantee::kReadYourWrites: return "read-your-writes";
    case Guarantee::kMonotonicReads: return "monotonic-reads";
    case Guarantee::kMonotonicWrites: return "monotonic-writes";
    case Guarantee::kWritesFollowReads: return "writes-follow-reads";
  }
  return "?";
}

const std::uint32_t* OnlineMonitor::Log::latest_at_most(
    std::uint32_t seq) const {
  // Rows ascend by seq from `head`: binary search the ring's logical order.
  std::size_t lo = 0, hi = rows;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (row(mid)[0] <= seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? nullptr : row(lo - 1);
}

std::uint32_t* OnlineMonitor::Log::push(std::uint32_t seq,
                                        std::size_t frontier_width) {
  if (frontier_width + 1 > width) {
    // A new origin: re-lay every row at the wider stride.
    const auto wider = static_cast<std::uint32_t>(frontier_width + 1);
    std::vector<std::uint32_t> relaid(std::size_t{rows} * wider, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy_n(&words[r * width], width, &relaid[r * wider]);
    }
    words = std::move(relaid);
    width = wider;
  }
  std::uint32_t* r;
  if (rows < kWritesPerLog) {
    words.resize(std::size_t{rows + 1} * width, 0);
    r = &words[std::size_t{rows++} * width];
  } else {
    r = &words[std::size_t{head} * width];
    head = (head + 1) % kWritesPerLog;
    std::fill_n(r, width, 0);
  }
  r[0] = seq;
  return r;
}

OnlineMonitor::OnlineMonitor(obs::TraceSink* trace,
                             obs::MetricsRegistry* metrics)
    : trace_(trace) {
  if (metrics != nullptr) {
    m_violations_ = &metrics->counter("checker.violations");
  }
}

std::uint32_t OnlineMonitor::proc_index(ProcId p) {
  const auto [it, inserted] = proc_index_.try_emplace(
      pack(p), static_cast<std::uint32_t>(procs_.size()));
  if (inserted) {
    procs_.push_back(p);
    proc_state_.emplace_back();
  }
  return it->second;
}

std::uint32_t OnlineMonitor::var_index(VarId v) {
  const auto [it, inserted] = var_index_.try_emplace(
      v.value, static_cast<std::uint32_t>(logs_.size()));
  if (inserted) logs_.emplace_back();
  return it->second;
}

OnlineMonitor::Log& OnlineMonitor::log(std::uint32_t var,
                                       std::uint32_t origin) {
  std::vector<Log>& by_origin = logs_[var];
  if (by_origin.size() <= origin) by_origin.resize(origin + 1);
  return by_origin[origin];
}

std::size_t OnlineMonitor::retained_writes() const {
  std::size_t n = 0;
  for (const std::vector<Log>& by_origin : logs_) {
    for (const Log& l : by_origin) n += l.rows;
  }
  return n;
}

void OnlineMonitor::observe(const obs::ParsedTraceEvent& ev) {
  if (ev.cat != "mcs") return;
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
}

void OnlineMonitor::on_write_issue(std::int64_t, ProcId proc, WriteId wid,
                                   VarId var) {
  ++events_seen_;
  if (!wid.valid()) return;
  const std::uint32_t o = proc_index(wid.origin());
  Log& l = log(var_index(var), o);
  // An IS-process re-issuing a write already logged teaches nothing.
  if (l.rows > 0 && l.row(l.rows - 1)[0] >= wid.seq()) return;
  if (proc == wid.origin()) {
    std::vector<std::uint32_t>& f = proc_state_[o].frontier;
    if (f.size() <= o) f.resize(o + 1, 0);
    f[o] = wid.seq();
    std::copy(f.begin(), f.end(), l.push(wid.seq(), f.size()) + 1);
  } else {
    l.push(wid.seq(), o + 1)[o + 1] = wid.seq();
  }
}

void OnlineMonitor::on_read_done(std::int64_t t, ProcId proc, VarId var,
                                 WriteId got) {
  ++events_seen_;
  const std::uint32_t p = proc_index(proc);
  const std::uint32_t v = var_index(var);
  const std::uint32_t o1 = got.valid() ? proc_index(got.origin()) : 0;
  Proc& reader = proc_state_[p];
  std::vector<std::uint32_t>& f = reader.frontier;
  if (reader.last_read.size() <= v) reader.last_read.resize(v + 1);
  const std::vector<Log>& by_origin = logs_[v];

  // The row of a logged write, or null when it is not (any more) held.
  auto row_of = [&by_origin](std::uint32_t o,
                             std::uint32_t seq) -> const std::uint32_t* {
    if (o >= by_origin.size()) return nullptr;
    const std::uint32_t* r = by_origin[o].latest_at_most(seq);
    return r != nullptr && r[0] == seq ? r : nullptr;
  };
  // Whether a row of origin `ro`'s log holds write #seq of origin `o` in
  // its frontier.
  auto holds = [&by_origin](const std::uint32_t* r, std::uint32_t ro,
                            std::uint32_t o, std::uint32_t seq) {
    return r != nullptr && o + 1 < by_origin[ro].width && r[o + 1] >= seq;
  };
  // The first guarantee of the header's list that witness w2 breaks.
  auto label = [&](std::uint32_t o2, std::uint32_t s2) {
    if (o2 == p) return Guarantee::kReadYourWrites;
    const WriteId last = reader.last_read[v];
    if (last.valid()) {
      const std::uint32_t ol = proc_index_.at(pack(last.origin()));
      if ((ol == o2 && last.seq() == s2) ||
          holds(row_of(ol, last.seq()), ol, o2, s2))
        return Guarantee::kMonotonicReads;
    }
    if ((got.valid() && o1 == o2) || f[o2] > s2)
      return Guarantee::kMonotonicWrites;
    return Guarantee::kWritesFollowReads;
  };

  // Per origin, the latest write to var inside the reader's frontier; a
  // read that returned a write that one follows missed it. Report the
  // witness with the first label.
  std::optional<Violation> worst;
  const std::size_t origins = std::min(f.size(), by_origin.size());
  for (std::uint32_t o = 0; o < origins; ++o) {
    if (f[o] == 0) continue;
    const std::uint32_t* w2 = by_origin[o].latest_at_most(f[o]);
    if (w2 == nullptr) continue;
    if (got.valid() && ((o == o1 && w2[0] == got.seq()) ||
                        !holds(w2, o, o1, got.seq())))
      continue;
    const Guarantee g = label(o, w2[0]);
    if (worst && worst->label <= g) continue;
    worst = Violation{got.valid() ? BadPattern::kWriteCORead
                                  : BadPattern::kWriteCOInitRead,
                      g, t, proc, var, got, WriteId::make(procs_[o], w2[0])};
  }
  if (worst) report(*worst);

  if (got.valid()) {
    if (const std::uint32_t* r = row_of(o1, got.seq())) {
      const std::size_t n = by_origin[o1].width - 1;
      if (f.size() < n) f.resize(n, 0);
      for (std::size_t o = 0; o < n; ++o) f[o] = std::max(f[o], r[o + 1]);
    } else {
      // Dropped from the log: keep what the write itself names.
      if (f.size() <= o1) f.resize(o1 + 1, 0);
      f[o1] = std::max(f[o1], got.seq());
    }
  }
  reader.last_read[v] = got;
}

std::vector<Violation> OnlineMonitor::check(const History& history) {
  OnlineMonitor m;
  const std::size_t n = history.size();
  constexpr std::size_t kInit = SIZE_MAX;      // reads the initial value
  constexpr std::size_t kThin = SIZE_MAX - 1;  // no write of its value
  std::vector<WriteId> wid(n);
  std::map<std::pair<VarId, Value>, std::size_t> first_writer;
  for (std::size_t pi = 0; pi < history.num_processes(); ++pi) {
    const History::Span s = history.process_span(pi);
    std::uint32_t writes = 0;
    for (std::size_t i = s.begin; i < s.end; ++i) {
      if (!history.is_write(i)) continue;
      wid[i] = WriteId::make(history.process(pi), ++writes);
      first_writer.try_emplace({history.var(i), history.value(i)}, i);
    }
  }
  std::vector<std::size_t> source(n, kInit);
  for (std::size_t i = 0; i < n; ++i) {
    if (history.is_write(i) || history.value(i) == kInitValue) continue;
    const auto it = first_writer.find({history.var(i), history.value(i)});
    source[i] = it == first_writer.end() ? kThin : it->second;
  }

  // Walk po ∪ rf, one op per process per round.
  std::vector<bool> issued(n, false);
  std::vector<std::size_t> cursor(history.num_processes());
  for (std::size_t pi = 0; pi < cursor.size(); ++pi)
    cursor[pi] = history.process_span(pi).begin;
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t pi = 0; pi < cursor.size(); ++pi) {
      const std::size_t i = cursor[pi];
      if (i == history.process_span(pi).end) continue;
      const auto t = static_cast<std::int64_t>(i);
      if (history.is_write(i)) {
        m.on_write_issue(t, history.process(pi), wid[i], history.var(i));
        issued[i] = true;
      } else {
        const std::size_t src = source[i];
        if (src == kThin || (src != kInit && !issued[src])) continue;
        m.on_read_done(t, history.process(pi), history.var(i),
                       src == kInit ? WriteId{} : wid[src]);
      }
      ++cursor[pi];
      progress = true;
    }
  }

  // Stuck: a thin-air read, or reads waiting on each other's processes.
  std::optional<Violation> stuck;
  for (std::size_t pi = 0; pi < cursor.size(); ++pi) {
    const std::size_t i = cursor[pi];
    if (i == history.process_span(pi).end) continue;
    const bool thin = source[i] == kThin;
    if (stuck && (!thin || stuck->pattern == BadPattern::kThinAirRead))
      continue;
    stuck = Violation{thin ? BadPattern::kThinAirRead : BadPattern::kCyclicCO,
                      Guarantee::kNone, static_cast<std::int64_t>(i),
                      history.process(pi), history.var(i),
                      thin ? WriteId{} : wid[source[i]], WriteId{}};
  }
  if (stuck) m.report(*stuck);
  return std::move(m.violations_);
}

void OnlineMonitor::report(Violation v) {
  ++violation_count_;
  if (m_violations_ != nullptr) m_violations_->inc();
  CIM_TRACE(trace_, sim::Time{v.t}, obs::TraceCategory::kChk, "violation",
            {{"kind", to_string(v.pattern)},
             {"proc", v.proc},
             {"var", v.var},
             {"wid", v.w1},
             {"expect", std::uint64_t{v.w2.seq()}},
             {"got", std::uint64_t{v.w1.seq()}},
             {"w2", v.w2},
             {"label", to_string(v.label)}});
  if (violations_.size() < kMaxViolations) violations_.push_back(v);
}

}  // namespace cim::chk
