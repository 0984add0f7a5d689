// Structured trace sink: the execution artifact of docs/OBSERVABILITY.md.
//
// Instrumented code records *events* — (virtual time, category, name, typed
// key/value fields) — into a pre-allocated ring buffer. The sink is disabled
// by default and costs one branch per instrumentation site when disabled: no
// ring is allocated, no field is materialized (sites guard with
// `CIM_TRACE(...)` / `enabled(cat)` before building fields). When enabled,
// recording is allocation-free: events are fixed-size PODs whose string
// payloads must be string literals (category names, event names, field keys,
// message type names — all static in this codebase).
//
// The buffer wraps: the newest `capacity` events are retained and
// `dropped()` counts evictions, so a bounded trace of an unbounded run is
// always available. Per-category totals survive wraparound.
//
// Export is JSONL (one JSON object per line, schema version
// `kTraceSchemaVersion`), specified field-by-field in docs/OBSERVABILITY.md.
// The checker's text trace format (checker/trace_io.h) is unrelated: that is
// a *history* of memory operations; this is an *execution* trace of the
// whole stack.
//
// The sink is an export: nothing in the system consumes events while they
// are recorded, so a run traces only when TraceOptions asks it to.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <type_traits>
#include <vector>

#include "common/ids.h"
#include "sim/time.h"

namespace cim::obs {

// v2: transport events (retx, retx_timeout, ack, dup, ooo, down_drop), fault
// events (fault_*, isp_crash/isp_restart, pair_lost_crashed), and the `why`
// field on net.drop. The record layout itself is unchanged.
// v3: every write lifecycle event (`write_issue` → `update_issued` → net
// `send`/`deliver` → `pair_out`/`pair_in` → `update_applied`) carries the
// originating `wid` (see cim::WriteId); new `chk` category with the
// `violation` event emitted by checker::OnlineMonitor (which is fed by the
// mcs::MemoryObserver hooks, not by this sink); field slots per record
// raised from 6 to 8.
// v4: periodic `clock_sample` events (category sim, field `steady_ns`)
// recorded on the engine thread by the mesh stats plane — each one pins a
// (virtual time, steady clock) correspondence so `cim_trace merge` can align
// per-process virtual timelines onto one wall clock (docs/TRACE_TOOLS.md
// "merge"). The record layout itself is unchanged.
inline constexpr int kTraceSchemaVersion = 4;

/// Which layer emitted an event. One bit each in TraceOptions::category_mask.
enum class TraceCategory : std::uint8_t {
  kSim = 0,    // simulator-level events
  kNet = 1,    // fabric: send / deliver / drop
  kMcs = 2,    // application-process operations
  kProto = 3,  // MCS-protocol internals: updates issued / buffered / applied
  kIsc = 4,    // IS-processes: pairs, pre-reads, propagation
  kApp = 5,    // free for examples / user code
  kChk = 6,    // online consistency monitor: violation reports
};
inline constexpr std::size_t kNumTraceCategories = 7;

inline const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kSim: return "sim";
    case TraceCategory::kNet: return "net";
    case TraceCategory::kMcs: return "mcs";
    case TraceCategory::kProto: return "proto";
    case TraceCategory::kIsc: return "isc";
    case TraceCategory::kApp: return "app";
    case TraceCategory::kChk: return "chk";
  }
  return "?";
}

inline constexpr std::uint32_t category_bit(TraceCategory c) {
  return 1u << static_cast<unsigned>(c);
}

/// One typed key/value field of a trace event. Keys and string values must
/// be string literals (they are stored as pointers, never copied).
struct TraceField {
  enum class Kind : std::uint8_t { kNone, kInt, kUint, kFloat, kStr, kProc };

  const char* key = nullptr;
  Kind kind = Kind::kNone;
  union {
    std::int64_t i;
    std::uint64_t u;
    double f;
    const char* s;
    std::uint32_t proc;  // system << 16 | index
  };

  constexpr TraceField() : i(0) {}
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  constexpr TraceField(const char* k, T v) : key(k), i(0) {
    if constexpr (std::is_signed_v<T>) {
      kind = Kind::kInt;
      i = static_cast<std::int64_t>(v);
    } else {
      kind = Kind::kUint;
      u = static_cast<std::uint64_t>(v);
    }
  }
  constexpr TraceField(const char* k, double v)
      : key(k), kind(Kind::kFloat), f(v) {}
  constexpr TraceField(const char* k, const char* v)
      : key(k), kind(Kind::kStr), s(v) {}
  constexpr TraceField(const char* k, ProcId p)
      : key(k), kind(Kind::kProc),
        proc((static_cast<std::uint32_t>(p.system.value) << 16) | p.index) {}
  constexpr TraceField(const char* k, VarId v)
      : key(k), kind(Kind::kUint), u(v.value) {}
  constexpr TraceField(const char* k, WriteId w)
      : key(k), kind(Kind::kUint), u(w.value) {}
  constexpr TraceField(const char* k, sim::Duration d)
      : key(k), kind(Kind::kInt), i(d.ns) {}
};

inline constexpr std::size_t kMaxTraceFields = 8;

/// A recorded event. POD; field slots beyond num_fields are unused.
struct TraceEvent {
  sim::Time t;
  std::uint64_t seq = 0;  // global record sequence number, never reused
  const char* name = nullptr;
  TraceCategory cat = TraceCategory::kSim;
  std::uint8_t num_fields = 0;
  std::array<TraceField, kMaxTraceFields> fields;
};

struct TraceOptions {
  bool enabled = false;
  std::size_t capacity = 1 << 16;  // ring slots, allocated on first enable
  std::uint32_t category_mask = 0xFFFFFFFFu;
};

class TraceSink {
 public:
  TraceSink() = default;
  explicit TraceSink(TraceOptions opts);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  bool enabled() const { return enabled_; }
  bool enabled(TraceCategory c) const {
    return enabled_ && (opts_.category_mask & category_bit(c)) != 0;
  }

  /// Enabling allocates the ring on first use; disabling keeps the buffer
  /// (so a trace can be paused and exported later).
  void set_enabled(bool enabled);
  void set_category_mask(std::uint32_t mask) { opts_.category_mask = mask; }
  std::uint32_t category_mask() const { return opts_.category_mask; }

  /// Record one event. Callers must check enabled(cat) first (CIM_TRACE does)
  /// so that field construction is never paid when tracing is off; record()
  /// re-checks and drops otherwise. Extra fields beyond kMaxTraceFields are
  /// silently truncated.
  void record(sim::Time t, TraceCategory cat, const char* name,
              std::initializer_list<TraceField> fields);

  // ---- introspection -------------------------------------------------------
  std::uint64_t recorded() const { return total_; }  // accepted, ever
  std::uint64_t dropped() const {                    // evicted by wraparound
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  std::size_t size() const {  // currently buffered
    return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                                 : ring_.size();
  }
  std::size_t capacity() const { return ring_.size(); }
  bool buffer_allocated() const { return !ring_.empty(); }
  std::uint64_t category_count(TraceCategory c) const {
    return per_category_[static_cast<std::size_t>(c)];
  }

  /// Drop buffered events and reset counters (capacity is kept).
  void clear();

  /// Visit buffered events, oldest first.
  void for_each(const std::function<void(const TraceEvent&)>& fn) const;

  /// Export buffered events as JSONL, oldest first (schema: see
  /// docs/OBSERVABILITY.md, "Trace record schema").
  void write_jsonl(std::ostream& os) const;

 private:
  TraceOptions opts_;
  bool enabled_ = false;
  std::vector<TraceEvent> ring_;
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, kNumTraceCategories> per_category_{};
};

/// Instrumentation-site helper: evaluates the field list only when `sink`
/// is non-null and enabled for `cat`.
#define CIM_TRACE(sink, time, cat, name, ...)                         \
  do {                                                                \
    ::cim::obs::TraceSink* cim_trace_sink_ = (sink);                  \
    if (cim_trace_sink_ != nullptr && cim_trace_sink_->enabled(cat)) \
      cim_trace_sink_->record((time), (cat), (name), __VA_ARGS__);    \
  } while (0)

}  // namespace cim::obs
