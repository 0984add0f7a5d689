#include "obs/trace_merge.h"

#include <algorithm>
#include <deque>
#include <ostream>

#include "obs/json.h"

namespace cim::obs {

namespace {

/// One (virtual time, host steady clock) correspondence from a clock_sample.
struct Sample {
  std::int64_t t = 0;  // virtual ns
  std::int64_t s = 0;  // CLOCK_MONOTONIC ns
};

/// Piecewise-linear virtual -> steady map. Outside the sampled range the
/// nearest sample extends with slope 1 (virtual and steady are both
/// nanoseconds; near a sample the engine advances roughly in real time).
std::int64_t map_virtual(const std::vector<Sample>& ss, std::int64_t t) {
  if (t <= ss.front().t) return ss.front().s + (t - ss.front().t);
  if (t >= ss.back().t) return ss.back().s + (t - ss.back().t);
  const auto it = std::upper_bound(
      ss.begin(), ss.end(), t,
      [](std::int64_t v, const Sample& smp) { return v < smp.t; });
  const Sample& a = *(it - 1);
  const Sample& b = *it;
  if (b.t == a.t) return a.s;
  const double frac =
      static_cast<double>(t - a.t) / static_cast<double>(b.t - a.t);
  return a.s +
         static_cast<std::int64_t>(frac * static_cast<double>(b.s - a.s));
}

}  // namespace

bool load_offsets_json(const std::string& text, NodeOffsets& out,
                       std::string* error) {
  JsonValue doc;
  if (!parse_json(text, doc, error)) return false;
  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || metrics->kind != JsonValue::Kind::kArray) {
    if (error != nullptr) *error = "no \"metrics\" array (not a snapshot?)";
    return false;
  }
  // fed.node.<i>.peer.<j>.offset_ns = clock(j) - clock(i), per edge. Both
  // directions are usable (the reverse edge negates).
  struct Edge {
    std::uint64_t to = 0;
    std::int64_t off = 0;
  };
  std::map<std::uint64_t, std::vector<Edge>> adj;
  for (const JsonValue& m : metrics->items) {
    const JsonValue* name = m.find("name");
    const JsonValue* value = m.find("value");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        value == nullptr || !value->is_number()) {
      continue;
    }
    std::uint64_t from = 0, to = 0;
    {
      // Parse "fed.node.<i>.peer.<j>.offset_ns" without sscanf surprises.
      std::string_view sv = name->s;
      const std::string_view pre = "fed.node.";
      const std::string_view mid = ".peer.";
      const std::string_view suf = ".offset_ns";
      if (sv.substr(0, pre.size()) != pre) continue;
      sv.remove_prefix(pre.size());
      const std::size_t mid_at = sv.find(mid);
      if (mid_at == std::string_view::npos) continue;
      const std::size_t suf_at = sv.rfind(suf);
      if (suf_at == std::string_view::npos ||
          suf_at + suf.size() != sv.size()) {
        continue;
      }
      const std::string_view a = sv.substr(0, mid_at);
      const std::string_view b =
          sv.substr(mid_at + mid.size(), suf_at - mid_at - mid.size());
      if (a.empty() || b.empty()) continue;
      for (char c : a) {
        if (c < '0' || c > '9') { from = UINT64_MAX; break; }
        from = from * 10 + static_cast<std::uint64_t>(c - '0');
      }
      for (char c : b) {
        if (c < '0' || c > '9') { to = UINT64_MAX; break; }
        to = to * 10 + static_cast<std::uint64_t>(c - '0');
      }
      if (from == UINT64_MAX || to == UINT64_MAX) continue;
    }
    adj[from].push_back(Edge{to, value->as_int()});
    adj[to].push_back(Edge{from, -value->as_int()});
  }
  out.rel_node0.clear();
  out.rel_node0[0] = 0;
  std::deque<std::uint64_t> frontier{0};
  while (!frontier.empty()) {
    const std::uint64_t at = frontier.front();
    frontier.pop_front();
    const auto it = adj.find(at);
    if (it == adj.end()) continue;
    for (const Edge& e : it->second) {
      if (out.rel_node0.count(e.to) != 0) continue;
      out.rel_node0[e.to] = out.rel_node0[at] + e.off;
      frontier.push_back(e.to);
    }
  }
  return true;
}

MergeResult merge_traces(const std::vector<MergeInput>& inputs,
                         const NodeOffsets& offsets) {
  MergeResult result;
  for (const MergeInput& in : inputs) {
    std::vector<Sample> samples;
    std::uint64_t node = UINT64_MAX;
    for (const ParsedTraceEvent& ev : in.events) {
      if (ev.name != "clock_sample") continue;
      const JsonValue* s = ev.field("steady_ns");
      if (s == nullptr || !s->is_number()) continue;
      samples.push_back(Sample{ev.t, s->as_int()});
      if (node == UINT64_MAX) node = ev.field_uint("node", UINT64_MAX);
    }
    std::sort(samples.begin(), samples.end(),
              [](const Sample& a, const Sample& b) { return a.t < b.t; });
    std::int64_t off = 0;
    if (node != UINT64_MAX) {
      const auto it = offsets.rel_node0.find(node);
      if (it != offsets.rel_node0.end()) {
        off = it->second;
      } else if (!offsets.rel_node0.empty()) {
        result.warnings.push_back(in.label + ": node " +
                                  std::to_string(node) +
                                  " missing from the offset table; using 0");
      }
    }
    if (samples.empty()) {
      result.warnings.push_back(
          in.label +
          ": no clock_sample records; timestamps used verbatim (run with "
          "--stats-interval and --trace to align)");
    } else {
      ++result.aligned_inputs;
    }
    for (ParsedTraceEvent ev : in.events) {
      if (!samples.empty()) ev.t = map_virtual(samples, ev.t) - off;
      result.events.push_back(std::move(ev));
    }
  }
  std::stable_sort(result.events.begin(), result.events.end(),
                   [](const ParsedTraceEvent& a, const ParsedTraceEvent& b) {
                     return a.t < b.t;
                   });
  std::uint64_t seq = 0;
  for (ParsedTraceEvent& ev : result.events) ev.seq = seq++;
  return result;
}

void write_trace_jsonl(std::ostream& os,
                       const std::vector<ParsedTraceEvent>& events) {
  for (const ParsedTraceEvent& ev : events) {
    JsonWriter w(os);
    w.begin_object();
    w.kv("v", ev.v);
    w.kv("seq", ev.seq);
    w.kv("t", ev.t);
    w.kv("cat", ev.cat);
    w.kv("ev", ev.name);
    w.key("f");
    write_json_value(os, ev.fields);
    w.end_object();
    os << '\n';
  }
}

}  // namespace cim::obs
