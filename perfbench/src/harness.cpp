#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricInfo> kMetrics = {
    {"setup_s", "s", false},
    {"ops_per_s", "1/s", false},
    {"cpu_us_per_op", "us/op", false},
    {"peak_rss_mb", "MB", false},
    {"completed_frac", "frac", false},
    {"runtime.vcs_per_pair", "1/pair", true},
    {"runtime.ivcs_per_pair", "1/pair", true},
    {"net.syscalls_per_pair", "1/pair", true},
    {"net.coalesced_frac", "frac", true},
    {"net.epoll_waits_per_pair", "1/pair", true},
    {"net.wakeups_per_pair", "1/pair", true},
    {"net.wire_bytes_per_pair", "B/pair", true},
    {"mesh.journal_full_frac", "frac", true},
    {"mesh.queue_full_stalls_per_pair", "1/pair", true},
    {"mesh.hb_miss", "count", true},
    {"mesh.resumes", "count", true},
    {"mesh.dup_drops", "count", true},
    {"mesh.join_s", "s", true},
    {"mesh.drain_s", "s", true},
    {"obs.trace_events_per_op", "1/op", true},
    {"obs.trace_dropped_per_op", "1/op", true},
    {"sim.events_per_op", "1/op", true},
    {"sim.events_per_s", "1/s", true},
    {"sim.queue_depth_peak", "count", true},
    {"common.pool_miss_frac", "frac", true},
    {"interconnect.pairs_per_write", "1/write", true},
    {"net.msgs_per_write", "1/write", true},
    {"checker.ingest_ops_per_s", "1/s", true},
    {"checker.bytes_per_op", "B/op", true},
    {"checker.cm_s", "s", true},
    {"checker.cc_s", "s", true},
    {"checker.explicit_edges_per_op", "1/op", true},
    {"checker.dup_s", "s", true},
    {"checker.ambiguous_reads", "count", true},
    {"checker.assignments_tried", "count", true},
    {"sim.mirror_cpu_us_per_op", "us/op", true},
    {"checker.monitor_cpu_us_per_op", "us/op", true},
    {"runtime.handoff_cpu_us_per_op", "us/op", true},
    {"net.codec_cpu_us_per_op", "us/op", true},
    {"visibility_p50_ms", "ms", true},
    {"visibility_p99_ms", "ms", true},
    {"visibility_samples", "count", true},
    {"bench.trace_overhead_frac", "frac", true},
    {"failed_frac", "frac", true},
};

void Result::set(const std::string& name, double value) {
  for (const MetricInfo& m : kMetrics) {
    if (name == m.name) {
      metrics[name] = value;
      return;
    }
  }
  throw std::logic_error("undeclared metric " + name);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double snapshot_value(const cim::obs::MetricsSnapshot& s,
                      std::string_view name) {
  const cim::obs::MetricsSnapshot::Entry* e = s.find(name);
  return e != nullptr ? static_cast<double>(e->value) : 0.0;
}

const std::vector<double>& Samples::of(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = s_.find(name);
  return it == s_.end() ? kEmpty : it->second;
}

double Samples::median_of(const std::string& name) const {
  return median(of(name));
}

void Result::gate_failed(const std::string& why) {
  correct = false;
  std::cerr << "correctness gate failed: " << why << "\n";
}

std::string Result::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricInfo& m : kMetrics) {
    auto it = metrics.find(m.name);
    if (it == metrics.end()) continue;
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": ";
    // JSON has no NaN/inf; a non-finite value is emitted as null so the
    // caller's validation rejects the run instead of mis-parsing it.
    if (std::isfinite(it->second)) os << it->second;
    else os << "null";
    os << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int SpanLog::begin(const char* name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, parent, now_ns(), 0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    os << "{\"id\": " << i << ", \"name\": \"" << sp.name
       << "\", \"parent\": " << sp.parent << ", \"start_ns\": " << sp.start_ns
       << ", \"end_ns\": " << sp.end_ns << "}\n";
  }
  for (const Counter& c : counters_)
    os << "{\"counter\": \"" << c.name << "\", \"t_ns\": " << c.t_ns
       << ", \"value\": " << c.value << "}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
