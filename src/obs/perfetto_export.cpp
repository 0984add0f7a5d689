#include "obs/perfetto_export.h"

#include <cstdio>
#include <ostream>
#include <set>
#include <string>
#include <utility>

#include "obs/json.h"
#include "obs/span_index.h"

namespace cim::obs {

namespace {

// Synthetic pid for records with no process affinity; system ids are
// uint16, so 1<<16 cannot collide.
constexpr std::uint32_t kGlobalPid = 1u << 16;

struct Track {
  std::uint32_t pid = kGlobalPid;
  std::uint32_t tid = 0;
};

Track track_of(const ParsedTraceEvent& ev) {
  ProcId p{};
  if (ev.field_proc("proc", p) || ev.field_proc("dst", p) ||
      ev.field_proc("src", p)) {
    return Track{p.system.value, p.index};
  }
  return Track{};
}

double to_us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

class EventArray {
 public:
  explicit EventArray(std::ostream& os) : os_(os) {}

  /// Open the next event object with the common header fields.
  JsonWriter& next(const char* ph, const char* name, double ts, Track tr) {
    if (!first_) os_ << ",\n";
    first_ = false;
    w_.begin_object();
    w_.kv("ph", ph);
    w_.kv("name", name);
    w_.kv("ts", ts);
    w_.kv("pid", std::uint64_t{tr.pid});
    w_.kv("tid", std::uint64_t{tr.tid});
    return w_;
  }

  void close() { w_.end_object(); }

 private:
  std::ostream& os_;
  JsonWriter w_{os_};
  bool first_ = true;
};

std::string proc_label(ProcId p) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "p(%u,%u)", unsigned(p.system.value),
                unsigned(p.index));
  return buf;
}

std::string wid_label(WriteId wid) {
  const ProcId o = wid.origin();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "w(%u,%u)#%u", unsigned(o.system.value),
                unsigned(o.index), unsigned(wid.seq()));
  return buf;
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<ParsedTraceEvent>& events) {
  SpanIndex spans;
  spans.index(events);

  // Track discovery: every proc any record or span origin mentions.
  std::set<std::pair<std::uint32_t, std::uint32_t>> tracks;
  bool global_track = false;
  for (const ParsedTraceEvent& ev : events) {
    const Track tr = track_of(ev);
    if (tr.pid == kGlobalPid) {
      global_track = true;
    } else {
      tracks.emplace(tr.pid, tr.tid);
    }
  }
  for (WriteId wid : spans.wids()) {
    const ProcId o = wid.origin();
    tracks.emplace(o.system.value, o.index);
  }

  os << "{\"traceEvents\":[\n";
  EventArray arr(os);

  // Metadata: name processes and threads so Perfetto's timeline is legible.
  std::set<std::uint32_t> pids_named;
  for (const auto& [pid, tid] : tracks) {
    if (pids_named.insert(pid).second) {
      JsonWriter& w = arr.next("M", "process_name", 0.0, Track{pid, 0});
      w.key("args");
      w.begin_object();
      w.kv("name", "system " + std::to_string(pid));
      w.end_object();
      arr.close();
    }
    JsonWriter& w = arr.next("M", "thread_name", 0.0, Track{pid, tid});
    w.key("args");
    w.begin_object();
    w.kv("name", proc_label(ProcId{SystemId{static_cast<std::uint16_t>(pid)},
                                   static_cast<std::uint16_t>(tid)}));
    w.end_object();
    arr.close();
  }
  if (global_track) {
    JsonWriter& w = arr.next("M", "process_name", 0.0, Track{});
    w.key("args");
    w.begin_object();
    w.kv("name", "trace");
    w.end_object();
    arr.close();
  }

  // Every record as an instant on its track, fields passed through as args.
  for (const ParsedTraceEvent& ev : events) {
    const std::string name = ev.cat + "." + ev.name;
    JsonWriter& w = arr.next("i", name.c_str(), to_us(ev.t), track_of(ev));
    w.kv("cat", ev.cat);
    w.kv("s", "t");  // thread-scoped instant
    w.key("args");
    write_json_value(os, ev.fields);
    arr.close();
  }

  // One async span per write, plus derived latency slices.
  for (WriteId wid : spans.wids()) {
    const WriteSpan* s = spans.span(wid);
    const std::string name = wid_label(wid);
    const ProcId o = wid.origin();
    const Track origin_track{o.system.value, o.index};
    const std::int64_t begin_t = s->origin_seen ? s->issue_t : 0;
    {
      JsonWriter& w = arr.next("b", name.c_str(), to_us(begin_t),
                               origin_track);
      w.kv("cat", "write");
      w.kv("id", wid.value);
      arr.close();
    }
    {
      JsonWriter& w = arr.next("e", name.c_str(), to_us(s->completion_t()),
                               origin_track);
      w.kv("cat", "write");
      w.kv("id", wid.value);
      arr.close();
    }
    for (const WriteSpan::Apply& a : s->applies) {
      if (a.wait_ns <= 0) continue;
      JsonWriter& w =
          arr.next("X", "causal_wait", to_us(a.t - a.wait_ns),
                   Track{a.proc.system.value, a.proc.index});
      w.kv("dur", to_us(a.wait_ns));
      w.kv("cat", "proto");
      w.key("args");
      w.begin_object();
      w.kv("wid", name);
      w.end_object();
      arr.close();
    }
    for (const WriteSpan::PairIn& p : s->pair_ins) {
      if (p.hop_ns <= 0) continue;
      JsonWriter& w = arr.next("X", "is_hop", to_us(p.t - p.hop_ns),
                               Track{p.proc.system.value, p.proc.index});
      w.kv("dur", to_us(p.hop_ns));
      w.kv("cat", "isc");
      w.key("args");
      w.begin_object();
      w.kv("wid", name);
      w.end_object();
      arr.close();
    }
  }

  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace cim::obs
