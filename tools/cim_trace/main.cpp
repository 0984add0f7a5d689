// cim_trace: analyze and export structured trace JSONL (docs/TRACE_TOOLS.md).
//
//   cim_trace summarize <trace.jsonl>      per-stage latency breakdown
//   cim_trace spans     <trace.jsonl>      one JSON object per write id
//   cim_trace check     <trace.jsonl>      offline consistency check (exit 1
//                                          when violations are found)
//   cim_trace export --perfetto <trace.jsonl> [-o out.json]
//                                          Chrome Trace Event JSON for
//                                          Perfetto / chrome://tracing
//   cim_trace merge [--offsets fed.json] <t0.jsonl> <t1.jsonl>... [-o F]
//                                          align per-node traces onto node
//                                          0's clock, one unified timeline
//                                          (add --perfetto for Chrome JSON)
//
// The input is the file TraceSink::write_jsonl() produces (schema
// docs/OBSERVABILITY.md); pass `-` to read stdin. merge consumes one file
// per mesh node plus (optionally) the federation metrics snapshot for the
// heartbeat-measured clock offsets — see docs/TRACE_TOOLS.md "merge".
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "checker/causal_checker.h"
#include "checker/online_monitor.h"
#include "checker/trace_history.h"
#include "obs/perfetto_export.h"
#include "obs/span_index.h"
#include "obs/summary.h"
#include "obs/table.h"
#include "obs/trace_merge.h"
#include "obs/trace_read.h"

namespace {

using cim::obs::ParsedTraceEvent;

int usage() {
  std::cerr
      << "usage: cim_trace <command> [options] <trace.jsonl>\n"
         "  summarize <trace.jsonl>                per-stage latency table\n"
         "  spans <trace.jsonl>                    per-write span JSONL\n"
         "  check <trace.jsonl>                    offline consistency check\n"
         "  export --perfetto <trace.jsonl> [-o F] Chrome Trace Event JSON\n"
         "  merge [--offsets fed.json] [--perfetto] <t0.jsonl>... [-o F]\n"
         "                                         one cross-node timeline\n"
         "Pass '-' as the trace file to read stdin.\n";
  return 2;
}

bool load(const std::string& path, std::vector<ParsedTraceEvent>& events) {
  std::vector<std::string> errors;
  if (path == "-") {
    events = cim::obs::read_trace_jsonl(std::cin, &errors);
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cim_trace: cannot open " << path << "\n";
      return false;
    }
    events = cim::obs::read_trace_jsonl(in, &errors);
  }
  for (const std::string& e : errors) {
    std::cerr << "cim_trace: " << path << ": " << e << "\n";
  }
  if (events.empty()) {
    std::cerr << "cim_trace: " << path << ": no trace records\n";
    return false;
  }
  return true;
}

/// Like load(), but a report-producing command (summarize/spans) refuses
/// degraded input outright: an empty trace or a truncated tail (a writer
/// that died mid-line, e.g. kill -9 before the JSONL flush completed) gets
/// one clear diagnostic and a failure exit instead of a quietly partial or
/// zero-row report.
bool load_strict(const std::string& path,
                 std::vector<ParsedTraceEvent>& events) {
  std::istream* in = &std::cin;
  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::cerr << "cim_trace: cannot open " << path << "\n";
      return false;
    }
    in = &file;
  }
  std::string line;
  std::size_t line_no = 0, bad = 0, last_bad_line = 0;
  std::string last_error;
  while (std::getline(*in, line)) {
    ++line_no;
    if (line.empty()) continue;
    ParsedTraceEvent ev;
    std::string error;
    if (cim::obs::parse_trace_line(line, ev, &error)) {
      events.push_back(std::move(ev));
    } else {
      ++bad;
      last_bad_line = line_no;
      last_error = std::move(error);
    }
  }
  if (events.empty()) {
    std::cerr << "cim_trace: " << path
              << ": empty trace (0 records) — was tracing enabled"
                 " (--trace)?\n";
    return false;
  }
  if (bad > 0 && last_bad_line == line_no) {
    std::cerr << "cim_trace: " << path << ": truncated tail at line "
              << last_bad_line << " (" << last_error
              << ") — writer died mid-record? refusing a partial report\n";
    return false;
  }
  if (bad > 0) {
    std::cerr << "cim_trace: " << path << ": " << bad
              << " malformed line(s), last at line " << last_bad_line << " ("
              << last_error << ") — refusing a partial report\n";
    return false;
  }
  return true;
}

void add_stage_row(cim::obs::Table& table, const char* stage,
                   const std::vector<cim::sim::Duration>& samples) {
  const cim::obs::DurationSummary s = cim::obs::summarize(samples);
  table.add_row(stage, s.count, s.min.ns, s.p50.ns, s.p90.ns, s.p99.ns,
                s.max.ns, static_cast<std::int64_t>(s.mean_ns));
}

int cmd_summarize(const std::vector<ParsedTraceEvent>& events) {
  cim::obs::SpanIndex index;
  index.index(events);
  const auto stages = index.stages();

  std::cout << "records: " << events.size() << "   writes: " << index.size()
            << "\n\n";
  cim::obs::Table table({"stage", "count", "min_ns", "p50_ns", "p90_ns",
                         "p99_ns", "max_ns", "mean_ns"});
  add_stage_row(table, "origin_apply", stages.origin_apply);
  add_stage_row(table, "fanout_intra", stages.fanout_intra);
  add_stage_row(table, "causal_wait", stages.causal_wait);
  add_stage_row(table, "is_hop", stages.is_hop);
  add_stage_row(table, "remote_apply", stages.remote_apply);
  add_stage_row(table, "propagation", stages.propagation);
  table.print(std::cout);
  std::cout << "\npropagation reproduces the isc.propagation_latency "
               "histogram (same samples, full precision).\n";
  return 0;
}

int cmd_spans(const std::vector<ParsedTraceEvent>& events) {
  cim::obs::SpanIndex index;
  index.index(events);
  index.write_spans_jsonl(std::cout);
  return 0;
}

int cmd_check(const std::string& path) {
  // Stream the JSONL line by line: each record feeds the online monitor and
  // the columnar history builder directly, so memory stays at the encoded
  // column size (~14 B/op) no matter how large the trace is — the event
  // vector the other commands materialize is never built.
  std::istream* in = &std::cin;
  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::cerr << "cim_trace: cannot open " << path << "\n";
      return 2;
    }
    in = &file;
  }
  cim::chk::OnlineMonitor monitor;
  cim::chk::TraceHistoryBuilder builder;
  std::string line;
  std::size_t records = 0, bad = 0;
  while (std::getline(*in, line)) {
    if (line.empty()) continue;
    ParsedTraceEvent ev;
    if (!cim::obs::parse_trace_line(line, ev, nullptr)) {
      ++bad;
      continue;
    }
    ++records;
    monitor.observe(ev);
    builder.observe(ev);
  }
  if (records == 0) {
    std::cerr << "cim_trace: " << path << ": no trace records\n";
    return 2;
  }

  // Offline pass: the federation history α^T (application ops only; ISP
  // copies are the propagation mechanism, not part of the checked
  // computation) through the bad-pattern checker.
  cim::chk::History full = builder.build();
  const cim::chk::TraceHistoryBuilder::Stats& tstats = builder.stats();
  cim::chk::History app =
      full.filter([](const cim::chk::Op& op) { return !op.is_isp; });
  const auto t0 = std::chrono::steady_clock::now();
  const cim::chk::CheckResult res =
      cim::chk::CausalChecker{}.check(app, cim::chk::Level::kCM);
  const double check_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  std::ostringstream summary;
  summary << records << " records, " << tstats.ops << " ops (" << app.size()
          << " app, " << tstats.isp_ops << " isp), bytes_per_op="
          << std::fixed << std::setprecision(1) << full.bytes_per_op()
          << ", offline=" << cim::chk::to_string(res.pattern)
          << ", check_ms=" << std::setprecision(1) << check_ms
          << " (resolve " << res.stats.resolve_ms << ", co "
          << res.stats.phase_a_ms << ", hb " << res.stats.hb_ms
          << ", residual " << res.stats.residual_ms
          << "), hb_rounds=" << res.stats.hb_rounds;
  if (bad > 0) summary << ", " << bad << " malformed line(s)";
  if (tstats.pending > 0 || tstats.orphan_dones > 0) {
    summary << ", " << tstats.pending << " incomplete, "
            << tstats.orphan_dones << " orphaned";
  }

  int exit_code = 0;
  if (monitor.violation_count() > 0) {
    // w1: the write the read returned; w2: the write to the same variable
    // with w1 ⇝ w2 ⇝ the read.
    cim::obs::Table table({"kind", "label", "t_ns", "proc", "var", "w1", "w2"});
    for (const cim::chk::Violation& v : monitor.violations()) {
      std::ostringstream proc, w1, w2;
      proc << v.proc;
      if (v.w1.valid()) {
        w1 << v.w1;
      } else {
        w1 << "init";
      }
      w2 << v.w2;
      table.add_row(cim::chk::to_string(v.pattern),
                    cim::chk::to_string(v.label), v.t, proc.str(),
                    v.var.value, w1.str(), w2.str());
    }
    table.print(std::cout);
    std::cout << monitor.violation_count() << " online violation(s)\n";
    exit_code = 1;
  }
  if (!res.ok()) {
    if (res.pattern == cim::chk::BadPattern::kThinAirRead) {
      // A dropped write (ring-buffer overflow, crash) makes its readers
      // look thin-air; indistinguishable from a real violation offline, so
      // warn without failing.
      std::cout << "warning: " << res.detail
                << " (possibly a dropped trace record)\n";
    } else if (res.pattern == cim::chk::BadPattern::kResidualLimit) {
      std::cout << "warning: " << res.detail << "\n";
    } else {
      std::cout << "violation (" << cim::chk::to_string(res.pattern)
                << "): " << res.detail << "\n";
      exit_code = 1;
    }
  }
  std::cout << (exit_code == 0 ? "ok: " : "failed: ") << summary.str()
            << "\n";
  return exit_code;
}

int cmd_export(const std::vector<ParsedTraceEvent>& events,
               const std::string& out_path) {
  if (out_path.empty() || out_path == "-") {
    cim::obs::write_chrome_trace(std::cout, events);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cim_trace: cannot write " << out_path << "\n";
    return 2;
  }
  cim::obs::write_chrome_trace(out, events);
  std::cerr << "wrote " << out_path << " (" << events.size()
            << " records); open in ui.perfetto.dev or chrome://tracing\n";
  return 0;
}

int cmd_merge(const std::vector<std::string>& paths,
              const std::string& offsets_path, bool perfetto,
              const std::string& out_path) {
  cim::obs::NodeOffsets offsets;
  if (!offsets_path.empty()) {
    std::ifstream in(offsets_path);
    if (!in) {
      std::cerr << "cim_trace: cannot open " << offsets_path << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!cim::obs::load_offsets_json(text.str(), offsets, &error)) {
      std::cerr << "cim_trace: " << offsets_path << ": " << error << "\n";
      return 2;
    }
  } else {
    std::cerr << "cim_trace: merge without --offsets: assuming one clock"
                 " domain (offsets 0)\n";
  }

  std::vector<cim::obs::MergeInput> inputs;
  for (const std::string& path : paths) {
    cim::obs::MergeInput in;
    in.label = path;
    if (!load(path, in.events)) return 2;
    inputs.push_back(std::move(in));
  }
  cim::obs::MergeResult merged =
      cim::obs::merge_traces(inputs, offsets);
  for (const std::string& w : merged.warnings) {
    std::cerr << "cim_trace: " << w << "\n";
  }

  const bool to_file = !out_path.empty() && out_path != "-";
  std::ofstream file;
  if (to_file) {
    file.open(out_path);
    if (!file) {
      std::cerr << "cim_trace: cannot write " << out_path << "\n";
      return 2;
    }
  }
  std::ostream& os = to_file ? static_cast<std::ostream&>(file) : std::cout;
  if (perfetto) {
    cim::obs::write_chrome_trace(os, merged.events);
  } else {
    cim::obs::write_trace_jsonl(os, merged.events);
  }
  std::cerr << "merged " << inputs.size() << " trace(s), "
            << merged.events.size() << " records ("
            << merged.aligned_inputs << " clock-aligned)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  std::vector<std::string> trace_paths;
  std::string out_path;
  std::string offsets_path;
  bool perfetto = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--perfetto") {
      perfetto = true;
    } else if (arg == "-o" || arg == "--out") {
      if (i + 1 >= argc) return usage();
      out_path = argv[++i];
    } else if (arg == "--offsets") {
      if (i + 1 >= argc) return usage();
      offsets_path = argv[++i];
    } else {
      trace_paths.push_back(arg);
    }
  }
  if (trace_paths.empty()) return usage();

  if (cmd == "merge") {
    return cmd_merge(trace_paths, offsets_path, perfetto, out_path);
  }
  if (trace_paths.size() != 1) return usage();
  const std::string& trace_path = trace_paths.front();

  // check streams the file itself (bounded memory); everything else loads
  // the event vector up front.
  if (cmd == "check") return cmd_check(trace_path);

  std::vector<ParsedTraceEvent> events;
  // summarize/spans produce reports: degraded input fails loudly (see
  // load_strict); check/export keep best-effort parsing.
  if (cmd == "summarize" || cmd == "spans") {
    if (!load_strict(trace_path, events)) return 2;
  } else {
    if (!load(trace_path, events)) return 2;
  }

  if (cmd == "summarize") return cmd_summarize(events);
  if (cmd == "spans") return cmd_spans(events);
  if (cmd == "export") {
    if (!perfetto) {
      std::cerr << "cim_trace: export currently requires --perfetto\n";
      return 2;
    }
    return cmd_export(events, out_path);
  }
  return usage();
}
