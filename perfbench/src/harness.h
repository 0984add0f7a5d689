// Shared plumbing of the repository benchmark (perfbench/README.md): run
// options, process resource usage, order statistics, the metric set printed
// as the final JSON line, and the in-memory span log of traced runs.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies every input size (self-test runs use a small scale).
  double scale = 1.0;
  /// check_2m only: plant one non-causal read in the checked history.
  bool noncausal = false;
  /// Traced runs write their spans here at exit ("" = keep in memory only).
  std::string spans_path;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

/// getrusage(RUSAGE_SELF) or (RUSAGE_THREAD) in the units the metrics use.
struct Usage {
  double cpu_us = 0;  // user + sys
  double vcs = 0;     // voluntary context switches
  double ivcs = 0;    // involuntary context switches

  static Usage of(int who) {
    rusage ru{};
    getrusage(who, &ru);
    Usage u;
    u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                   1e6 +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    u.vcs = static_cast<double>(ru.ru_nvcsw);
    u.ivcs = static_cast<double>(ru.ru_nivcsw);
    return u;
  }
  static Usage process() { return of(RUSAGE_SELF); }
  static Usage thread() { return of(RUSAGE_THREAD); }

  Usage operator-(const Usage& o) const {
    return Usage{cpu_us - o.cpu_us, vcs - o.vcs, ivcs - o.ivcs};
  }
};

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Value at quantile q in [0, 1], interpolated; sorts `v` in place.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// A counter or gauge of a metrics snapshot; 0 when absent.
double snapshot_value(const cim::obs::MetricsSnapshot& s,
                      std::string_view name);

/// Per-repetition samples of named metrics; the reported value is the
/// median over repetitions.
class Samples {
 public:
  void add(const std::string& name, double v) { s_[name].push_back(v); }
  double median_of(const std::string& name) const;
  const std::vector<double>& of(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> s_;
};

/// Every metric the benchmark reports, with its unit. BENCHMARK.json
/// declares the same names; perfbench/run.py checks the two agree.
struct MetricInfo {
  const char* name;
  const char* unit;
  bool per_layer;  // reported by traced runs; end-to-end otherwise
};
extern const std::vector<MetricInfo> kMetrics;

/// The metrics one run reports (name -> value; units come from kMetrics).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  /// Throws std::logic_error for a name kMetrics does not declare.
  void set(const std::string& name, double value);
  /// Fails the correctness gate and says why on stderr.
  void gate_failed(const std::string& why);
  /// The last line of the run's standard output.
  std::string json() const;
};

/// Spans from the benchmark's own code around each public call it makes,
/// and samples of public counters, kept in memory while the run measures and
/// written once at exit.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Open a span; returns its id (-1 when tracing is off).
  int begin(const char* name, int parent = -1);
  void end(int id);
  /// One sample of a counter series (no-op when tracing is off).
  void counter(const char* name, std::int64_t t_ns, double value) {
    if (enabled_) counters_.push_back(Counter{name, t_ns, value});
  }
  std::size_t size() const { return spans_.size(); }
  /// Write spans and counter samples as JSON lines; false if the file cannot
  /// be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Counter {
    const char* name;
    std::int64_t t_ns;
    double value;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, int parent = -1)
      : log_(log), id_(log.begin(name, parent)) {}
  ~Scoped() { log_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

Result run_mesh_chain2(const Options& opt, SpanLog& spans);
Result run_sim_tree8(const Options& opt, SpanLog& spans);
Result run_check_2m(const Options& opt, SpanLog& spans);

}  // namespace perfbench
