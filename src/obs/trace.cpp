#include "obs/trace.h"

#include <ostream>

#include "obs/json.h"

namespace cim::obs {

TraceSink::TraceSink(TraceOptions opts) : opts_(opts) {
  if (opts_.enabled) set_enabled(true);
}

void TraceSink::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (enabled_ && ring_.empty() && opts_.capacity > 0) {
    ring_.resize(opts_.capacity);
  }
}

void TraceSink::clear() {
  total_ = 0;
  per_category_.fill(0);
}

void TraceSink::record(sim::Time t, TraceCategory cat, const char* name,
                       std::initializer_list<TraceField> fields) {
  if (!enabled(cat) || ring_.empty()) return;
  TraceEvent& ev = ring_[total_ % ring_.size()];
  ev.t = t;
  ev.seq = total_;
  ev.name = name;
  ev.cat = cat;
  ev.num_fields = 0;
  for (const TraceField& f : fields) {
    if (ev.num_fields == kMaxTraceFields) break;
    ev.fields[ev.num_fields++] = f;
  }
  ++total_;
  ++per_category_[static_cast<std::size_t>(cat)];
}

void TraceSink::for_each(
    const std::function<void(const TraceEvent&)>& fn) const {
  if (ring_.empty() || total_ == 0) return;
  const std::size_t n = size();
  const std::uint64_t first = total_ - n;
  for (std::uint64_t k = first; k < total_; ++k) {
    fn(ring_[k % ring_.size()]);
  }
}

namespace {

void write_field(JsonWriter& w, const TraceField& f) {
  w.key(f.key);
  switch (f.kind) {
    case TraceField::Kind::kInt:
      w.value(f.i);
      break;
    case TraceField::Kind::kUint:
      w.value(f.u);
      break;
    case TraceField::Kind::kFloat:
      w.value(f.f);
      break;
    case TraceField::Kind::kStr:
      w.value(f.s);
      break;
    case TraceField::Kind::kProc: {
      // "system.index", matching the `proc` field spec of OBSERVABILITY.md.
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%u.%u", f.proc >> 16, f.proc & 0xFFFF);
      w.value(buf);
      break;
    }
    case TraceField::Kind::kNone:
      w.value(std::string_view("?"));
      break;
  }
}

}  // namespace

void TraceSink::write_jsonl(std::ostream& os) const {
  for_each([&os](const TraceEvent& ev) {
    JsonWriter w(os);
    w.begin_object();
    w.kv("v", kTraceSchemaVersion);
    w.kv("seq", ev.seq);
    w.kv("t", ev.t.ns);
    w.kv("cat", to_string(ev.cat));
    w.kv("ev", ev.name);
    w.key("f");
    w.begin_object();
    for (std::uint8_t i = 0; i < ev.num_fields; ++i) {
      write_field(w, ev.fields[i]);
    }
    w.end_object();
    w.end_object();
    os << '\n';
  });
}

}  // namespace cim::obs
