#include "checker/trace_io.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <vector>

namespace cim::chk {

void write_trace(const History& history, std::ostream& os) {
  os << "# cim trace v1: kind system proc var value invoked_ns responded_ns"
        " [isp]\n";
  // Interleave by invocation time so the file reads chronologically while
  // preserving per-process program order (stable for equal times). Sorting
  // an index array over a materialized timestamp column keeps this free of
  // per-Op structs.
  const std::size_t n = history.size();
  std::vector<std::int64_t> invoked(n);
  for (std::size_t i = 0; i < n; ++i) invoked[i] = history.invoked(i).ns;
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return invoked[a] < invoked[b];
                   });
  std::vector<ProcId> procs(n);
  for (std::size_t p = 0; p < history.num_processes(); ++p) {
    const History::Span s = history.process_span(p);
    for (std::size_t i = s.begin; i < s.end; ++i) {
      procs[i] = history.process(p);
    }
  }
  Op op;
  for (const std::uint32_t i : idx) {
    op.proc = procs[i];
    op.is_isp = history.is_isp(i);
    op.kind = history.kind(i);
    op.var = history.var(i);
    op.value = history.value(i);
    op.invoked = sim::Time{invoked[i]};
    op.responded = history.responded(i);
    write_trace_row(os, op, /*with_times=*/true);
  }
}

void write_trace_row(std::ostream& os, const Op& op, bool with_times) {
  os << (op.kind == OpKind::kRead ? 'r' : 'w') << ' ' << op.proc.system.value
     << ' ' << op.proc.index << ' ' << op.var.value << ' ' << op.value;
  if (with_times) os << ' ' << op.invoked.ns << ' ' << op.responded.ns;
  if (op.is_isp) os << " isp";
  os << '\n';
}

std::string to_trace(const History& history) {
  std::ostringstream os;
  write_trace(history, os);
  return os.str();
}

ParseResult read_trace(std::istream& is) {
  // Stream straight into the columnar builder: per-process program order is
  // line order, which is exactly the order HistoryBuilder wants, so no Op
  // vector is ever materialized.
  HistoryBuilder b;
  std::string line;
  std::size_t line_no = 0;

  auto fail = [&](const std::string& msg) {
    ParseResult r;
    r.error = "line " + std::to_string(line_no) + ": " + msg;
    return r;
  };

  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;  // blank or comment-only line
    if (kind != "r" && kind != "w") {
      return fail("expected 'r' or 'w', got '" + kind + "'");
    }
    std::uint32_t system = 0, proc = 0, var = 0;
    std::int64_t value = 0;
    if (!(ls >> system >> proc >> var >> value)) {
      return fail("expected: kind system proc var value");
    }
    if (system > UINT16_MAX || proc > UINT16_MAX) {
      return fail("system/proc id out of range");
    }
    std::int64_t invoked = 0, responded = 0;
    if (ls >> invoked) {
      if (!(ls >> responded)) return fail("invoked time without responded");
    }
    bool is_isp = false;
    std::string flag;
    if (ls >> flag) {
      if (flag != "isp") return fail("unknown trailer '" + flag + "'");
      is_isp = true;
    }
    b.add(ProcId{SystemId{static_cast<std::uint16_t>(system)},
                 static_cast<std::uint16_t>(proc)},
          is_isp, kind == "r" ? OpKind::kRead : OpKind::kWrite, VarId{var},
          value, sim::Time{invoked}, sim::Time{responded});
  }
  ParseResult r;
  r.history = b.build();
  return r;
}

ParseResult parse_trace(const std::string& text) {
  std::istringstream is(text);
  return read_trace(is);
}

}  // namespace cim::chk
