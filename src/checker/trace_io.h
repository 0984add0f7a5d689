// Plain-text trace format for histories, so executions can be archived and
// the consistency checkers used as standalone tools on traces produced
// elsewhere.
//
// Format: one operation per line, '#' starts a comment, blank lines ignored.
//
//   w <system> <proc> <var> <value> [<invoked_ns> <responded_ns>] [isp]
//   r <system> <proc> <var> <value> [<invoked_ns> <responded_ns>] [isp]
//
// Program order per process is line order. Example:
//
//   # S0.p0 writes x0=1; S1.p0 reads it
//   w 0 0 0 1
//   r 1 0 0 1
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "checker/history.h"

namespace cim::chk {

/// Serialize a history (with timestamps and ISP flags).
void write_trace(const History& history, std::ostream& os);

/// Write one operation as one row of the format: `kind system proc var
/// value`, then `invoked_ns responded_ns` iff `with_times`, then `isp` for
/// an IS-process operation.
void write_trace_row(std::ostream& os, const Op& op, bool with_times);
std::string to_trace(const History& history);

struct ParseResult {
  std::optional<History> history;  // nullopt on error
  std::string error;               // message with line number
};

/// Parse a trace; returns the history or a diagnostic.
ParseResult read_trace(std::istream& is);
ParseResult parse_trace(const std::string& text);

}  // namespace cim::chk
