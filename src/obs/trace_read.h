// Reading structured traces back: a minimal JSON parser and the parsed
// counterpart of TraceEvent.
//
// Nothing reads obs::TraceEvent records as they are recorded: in-process,
// SpanIndex and the online monitor take the typed mcs::MemoryObserver
// hooks. Offline tooling — the cim_trace CLI, the Perfetto exporter, tests —
// re-reads the JSONL emitted by TraceSink::write_jsonl(). ParsedTraceEvent
// is its record: one per line, with typed field accessors mirroring
// TraceField kinds.
//
// The JSON parser is deliberately small (objects, arrays, strings, numbers,
// booleans, null; no \uXXXX surrogate pairs beyond pass-through) — enough
// for the schemas this repo emits, not a general-purpose library.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace cim::obs {

/// One parsed JSON value. Numbers keep integer precision when the source
/// text is integral (trace timestamps exceed a double's 53-bit mantissa).
struct JsonValue {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool b = false;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
  std::vector<JsonValue> items;                           // arrays
  std::vector<std::pair<std::string, JsonValue>> members; // objects

  /// Object member lookup; null when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  bool is_number() const {
    return kind == Kind::kInt || kind == Kind::kDouble;
  }
  double as_double() const { return kind == Kind::kInt ? double(i) : d; }
  std::int64_t as_int() const {
    return kind == Kind::kDouble ? static_cast<std::int64_t>(d) : i;
  }
};

/// Parse one complete JSON document from `text` (trailing whitespace
/// allowed). Returns false and fills `error` (if non-null) on malformed
/// input.
bool parse_json(std::string_view text, JsonValue& out,
                std::string* error = nullptr);

/// Write `v` back as compact JSON (members in stored order).
void write_json_value(std::ostream& os, const JsonValue& v);

/// One trace record read back from JSONL (docs/OBSERVABILITY.md, "Trace
/// record schema").
struct ParsedTraceEvent {
  int v = 0;                 // schema version
  std::uint64_t seq = 0;
  std::int64_t t = 0;        // virtual time, ns
  std::string cat;
  std::string name;
  JsonValue fields;          // the "f" object

  const JsonValue* field(std::string_view key) const {
    return fields.find(key);
  }
  /// Integer field with default (also reads numeric-looking doubles).
  std::int64_t field_int(std::string_view key, std::int64_t def = 0) const;
  std::uint64_t field_uint(std::string_view key,
                           std::uint64_t def = 0) const {
    return static_cast<std::uint64_t>(field_int(key, std::int64_t(def)));
  }
  /// String field; empty when absent.
  std::string_view field_str(std::string_view key) const;
  /// Proc field ("system.index"); returns false when absent or malformed.
  bool field_proc(std::string_view key, ProcId& out) const;
  /// The `wid` field as a WriteId (invalid when absent or zero).
  WriteId wid() const { return WriteId{field_uint("wid")}; }
};

/// Parse one JSONL line into a trace record. Returns false (with `error`)
/// when the line is not a well-formed trace record.
bool parse_trace_line(std::string_view line, ParsedTraceEvent& out,
                      std::string* error = nullptr);

/// Parse a whole JSONL stream, skipping blank lines. Returns the records in
/// file order; `errors` (if non-null) receives one message per bad line.
std::vector<ParsedTraceEvent> read_trace_jsonl(
    std::istream& in, std::vector<std::string>* errors = nullptr);

}  // namespace cim::obs
