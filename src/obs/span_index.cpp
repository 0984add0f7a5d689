#include "obs/span_index.h"

#include <algorithm>
#include <ostream>

#include "obs/json.h"

namespace cim::obs {

namespace {

// The distinct procs of a visibility query, each with a slot, so that one
// pass over a span's applies marks every target it reached.
class TargetSet {
 public:
  explicit TargetSet(const std::vector<ProcId>& targets) {
    for (ProcId p : targets) slot_.try_emplace(p, slot_.size());
    reached_.resize(slot_.size());
  }

  std::optional<sim::Duration> visibility(const WriteSpan& s) {
    if (!s.origin_seen) return std::nullopt;
    std::fill(reached_.begin(), reached_.end(), false);
    std::size_t missing = reached_.size();
    std::int64_t latest = s.issue_t;
    auto reach = [&](ProcId p, std::int64_t t) {
      const auto it = slot_.find(p);
      if (it == slot_.end() || reached_[it->second]) return;
      reached_[it->second] = true;  // the first apply counts
      --missing;
      latest = std::max(latest, t);
    };
    reach(s.wid.origin(), s.issue_t);  // the origin sees its write at issue
    for (const WriteSpan::Apply& a : s.applies) {
      if (missing == 0) break;
      reach(a.proc, a.t);
    }
    if (missing != 0) return std::nullopt;
    return sim::Duration{latest - s.issue_t};
  }

 private:
  std::unordered_map<ProcId, std::size_t> slot_;
  std::vector<bool> reached_;
};

}  // namespace

std::int64_t WriteSpan::completion_t() const {
  std::int64_t t = std::max(issue_t, origin_done_t);
  for (const Apply& a : applies) t = std::max(t, a.t);
  for (const PairOut& p : pair_outs) t = std::max(t, p.t);
  for (const PairIn& p : pair_ins) t = std::max(t, p.t);
  return t;
}

WriteSpan& SpanIndex::span_for(WriteId wid) {
  auto [it, inserted] = by_wid_.try_emplace(wid, spans_.size());
  if (inserted) {
    spans_.emplace_back();
    spans_.back().wid = wid;
    order_.push_back(wid);
  }
  return spans_[it->second];
}

const WriteSpan* SpanIndex::span(WriteId wid) const {
  auto it = by_wid_.find(wid);
  return it == by_wid_.end() ? nullptr : &spans_[it->second];
}

void SpanIndex::on_write_issue(std::int64_t t, ProcId proc, WriteId wid,
                               VarId var, Value value) {
  WriteSpan& s = span_for(wid);
  s.var = var;
  s.value = value;
  // An IS-process re-issues foreign writes locally (Propagate_in); only the
  // issue at the minting process anchors the span's origin timeline.
  if (proc == wid.origin()) {
    s.origin_seen = true;
    s.issue_t = t;
  }
}

void SpanIndex::on_write_done(std::int64_t t, ProcId proc, WriteId wid) {
  WriteSpan& s = span_for(wid);
  if (proc == wid.origin()) s.origin_done_t = t;
}

void SpanIndex::on_update_applied(std::int64_t t, ProcId proc, WriteId wid,
                                  std::int64_t wait_ns) {
  span_for(wid).applies.push_back({proc, t, wait_ns});
}

void SpanIndex::on_pair_out(std::int64_t t, ProcId proc, WriteId wid,
                            std::uint64_t link) {
  span_for(wid).pair_outs.push_back({proc, t, link});
}

void SpanIndex::on_pair_in(std::int64_t t, ProcId proc, WriteId wid,
                           std::int64_t hop_ns, std::int64_t prop_ns) {
  span_for(wid).pair_ins.push_back({proc, t, hop_ns, prop_ns});
}

void SpanIndex::observe(const ParsedTraceEvent& ev) {
  ++events_seen_;
  const WriteId wid = ev.wid();
  if (!wid.valid()) return;
  ProcId proc{};
  if (!ev.field_proc("proc", proc)) return;
  if (ev.cat == "mcs") {
    if (ev.name == "write_issue") {
      on_write_issue(ev.t, proc, wid,
                     VarId{static_cast<std::uint32_t>(ev.field_int("var"))},
                     ev.field_int("val"));
    } else if (ev.name == "write_done") {
      on_write_done(ev.t, proc, wid);
    }
  } else if (ev.cat == "proto") {
    if (ev.name == "update_applied") {
      on_update_applied(ev.t, proc, wid, ev.field_int("wait_ns", -1));
    }
  } else if (ev.cat == "isc") {
    if (ev.name == "pair_out") {
      on_pair_out(ev.t, proc, wid, ev.field_uint("link"));
    } else if (ev.name == "pair_in") {
      on_pair_in(ev.t, proc, wid, ev.field_int("hop_ns"),
                 ev.field_int("prop_ns"));
    }
  }
}

void SpanIndex::index(const std::vector<ParsedTraceEvent>& events) {
  for (const ParsedTraceEvent& ev : events) observe(ev);
}

std::optional<sim::Time> SpanIndex::apply_time(WriteId wid,
                                               ProcId proc) const {
  const WriteSpan* s = span(wid);
  if (s == nullptr || !s->origin_seen) return std::nullopt;
  if (proc == wid.origin()) return sim::Time{s->issue_t};
  for (const WriteSpan::Apply& a : s->applies) {
    if (a.proc == proc) return sim::Time{a.t};
  }
  return std::nullopt;
}

std::optional<sim::Duration> SpanIndex::visibility(
    WriteId wid, const std::vector<ProcId>& targets) const {
  const WriteSpan* s = span(wid);
  if (s == nullptr) return std::nullopt;
  return TargetSet(targets).visibility(*s);
}

std::optional<sim::Duration> SpanIndex::worst_visibility(
    const std::vector<ProcId>& targets) const {
  TargetSet set(targets);
  std::optional<sim::Duration> worst;
  for (const WriteSpan& s : spans_) {
    if (!s.origin_seen) continue;
    const std::optional<sim::Duration> vis = set.visibility(s);
    if (!vis) return std::nullopt;
    if (!worst || *vis > *worst) worst = *vis;
  }
  return worst;
}

std::vector<sim::Duration> SpanIndex::visibilities(
    const std::vector<ProcId>& targets) const {
  TargetSet set(targets);
  std::vector<sim::Duration> out;
  for (const WriteSpan& s : spans_) {
    if (const std::optional<sim::Duration> vis = set.visibility(s)) {
      out.push_back(*vis);
    }
  }
  return out;
}

SpanIndex::StageBreakdown SpanIndex::stages() const {
  StageBreakdown out;
  for (const WriteSpan& s : spans_) {
    const SystemId origin_sys = s.wid.origin().system;
    if (s.origin_seen && s.origin_done_t >= 0) {
      out.origin_apply.push_back(sim::Duration{s.origin_done_t - s.issue_t});
    }
    for (const WriteSpan::Apply& a : s.applies) {
      if (a.wait_ns >= 0) out.causal_wait.push_back(sim::Duration{a.wait_ns});
      if (!s.origin_seen || a.proc == s.wid.origin()) continue;
      const sim::Duration lat{a.t - s.issue_t};
      if (a.proc.system == origin_sys) {
        out.fanout_intra.push_back(lat);
      } else {
        out.remote_apply.push_back(lat);
      }
    }
    for (const WriteSpan::PairIn& p : s.pair_ins) {
      out.is_hop.push_back(sim::Duration{p.hop_ns});
      out.propagation.push_back(sim::Duration{p.prop_ns});
    }
  }
  return out;
}

void SpanIndex::write_spans_jsonl(std::ostream& os) const {
  for (WriteId wid : order_) {
    const WriteSpan& s = spans_[by_wid_.at(wid)];
    JsonWriter w(os);
    w.begin_object();
    w.kv("wid", s.wid.value);
    {
      const ProcId o = s.wid.origin();
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%u.%u", unsigned(o.system.value),
                    unsigned(o.index));
      w.kv("origin", std::string_view(buf));
    }
    w.kv("seq", std::uint64_t{s.wid.seq()});
    w.kv("var", std::uint64_t{s.var.value});
    w.kv("val", std::int64_t{s.value});
    if (s.origin_seen) w.kv("issue_t", s.issue_t);
    if (s.origin_done_t >= 0) w.kv("done_t", s.origin_done_t);
    w.kv("completion_t", s.completion_t());
    w.key("applies");
    w.begin_array();
    for (const WriteSpan::Apply& a : s.applies) {
      w.begin_object();
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%u.%u", unsigned(a.proc.system.value),
                    unsigned(a.proc.index));
      w.kv("proc", std::string_view(buf));
      w.kv("t", a.t);
      if (a.wait_ns >= 0) w.kv("wait_ns", a.wait_ns);
      w.end_object();
    }
    w.end_array();
    w.key("pair_outs");
    w.begin_array();
    for (const WriteSpan::PairOut& p : s.pair_outs) {
      w.begin_object();
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%u.%u", unsigned(p.proc.system.value),
                    unsigned(p.proc.index));
      w.kv("proc", std::string_view(buf));
      w.kv("t", p.t);
      w.kv("link", p.link);
      w.end_object();
    }
    w.end_array();
    w.key("pair_ins");
    w.begin_array();
    for (const WriteSpan::PairIn& p : s.pair_ins) {
      w.begin_object();
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%u.%u", unsigned(p.proc.system.value),
                    unsigned(p.proc.index));
      w.kv("proc", std::string_view(buf));
      w.kv("t", p.t);
      w.kv("hop_ns", p.hop_ns);
      w.kv("prop_ns", p.prop_ns);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
  }
}

}  // namespace cim::obs
