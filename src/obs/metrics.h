// Metrics registry: named counters, gauges, and histograms with pull-based
// snapshots and JSON/CSV exporters.
//
// Naming convention (docs/OBSERVABILITY.md): `layer.noun[_qualifier][.label]`
// — lower-case, dot-separated layer prefix matching the src/ module that
// emits it (`sim.`, `net.`, `mcs.`, `proto.`, `isc.`, `trace.`), snake_case
// nouns, and an optional trailing `.label` for a fixed enumeration (e.g.
// `net.delivery_latency.intra` / `.inter`). Names are the stable schema:
// renaming one is a schema change and bumps kMetricsSchemaVersion.
//
// Instruments are cheap cells with stable addresses: instrumented code looks
// a metric up once (registry methods upsert) and keeps the pointer, so hot
// paths pay one add/compare per event, never a map lookup. Histograms take
// sim::Duration samples and summarize through obs::DurationSummary;
// ValueHistogram does the same for unitless sizes (queue depths, batch
// sizes). To bound memory on unbounded runs, histograms decimate once
// max_samples is hit (keep-every-2nd, doubling the keep stride) — count,
// sum, min, and max stay exact, percentiles become stride-sampled
// approximations.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"
#include "obs/summary.h"

namespace cim::obs {

// v2: per-link transport gauges renamed net.endpoint.<2l+side>.* →
// net.link.<l>.<side>.* and unified across transports (backlog on every
// link; byte counts on serializing links); net.wire.* codec instruments
// added. v3: net.mesh.* counters for the epoll mesh transport
// (docs/BRIDGE.md); mesh snapshots fold net.wire.bytes_* post-run without
// the *_ns histograms. v4: per-peer session gauges
// net.mesh.<peer>.{down,hb_miss,resumes,dup_drops,pairs_sent,pairs_delivered}
// for the crash-tolerant link sessions (docs/BRIDGE.md "Failure behavior").
// v5: the JSON header carries a `meta` object ({schema_version, git_sha}) so
// mixed-version snapshots are detectable during federation aggregation;
// per-peer RTT/offset instruments net.mesh.<peer>.{rtt_ns,rtt_best_ns,
// offset_ns,rtt_count} from the heartbeat NTP exchange; federation-wide
// fed.node.<i>.* entries in node 0's aggregated snapshot (docs/BRIDGE.md
// "Stats aggregation"). See docs/OBSERVABILITY.md § Schema versioning.
inline constexpr int kMetricsSchemaVersion = 5;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t v) { value_ += v; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Histogram over int64 samples (durations in ns, or unitless values).
class Int64Histogram {
 public:
  /// Inline: called a few times per simulated event (delivery latency,
  /// causal wait, queue depths); only decimation is out of line.
  void observe(std::int64_t v) {
    if (count_ == 0) {
      min_ = max_ = v;
    } else {
      min_ = v < min_ ? v : min_;
      max_ = v > max_ ? v : max_;
    }
    ++count_;
    sum_ += v;

    if (until_next_ > 0) {
      --until_next_;
      return;
    }
    if (samples_.size() >= max_samples_) decimate();
    samples_.push_back(v);
    until_next_ = stride_ - 1;
  }

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }

  /// Percentile summary of the retained samples via obs::summarize, with
  /// count/min/max patched to the exact values.
  DurationSummary summary() const;

  /// Retained-sample cap (test hook; decimation halves retention beyond it).
  void set_max_samples(std::size_t n) { max_samples_ = n < 2 ? 2 : n; }

 private:
  void decimate();

  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::uint64_t stride_ = 1;  // record every stride_-th observation
  std::uint64_t until_next_ = 0;
  std::size_t max_samples_ = std::size_t{1} << 20;
  std::vector<std::int64_t> samples_;
};

/// Duration-typed histogram (values are virtual-time nanoseconds).
class DurationHistogram : public Int64Histogram {
 public:
  void observe(sim::Duration d) { Int64Histogram::observe(d.ns); }
};

/// Unitless histogram (queue depths, batch sizes, backlogs).
class ValueHistogram : public Int64Histogram {};

/// A point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram, kValueHistogram };

  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    std::int64_t value = 0;          // counters and gauges
    DurationSummary summary;         // histograms
    std::int64_t sum = 0;            // histograms
  };

  std::vector<Entry> entries;

  const Entry* find(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Upsert by name. Returned references are stable for the registry's
  /// lifetime — cache them on hot paths.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  DurationHistogram& histogram(std::string_view name);
  ValueHistogram& value_histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// Apply a retained-sample cap to every currently registered histogram
  /// (see Int64Histogram::set_max_samples). Steady-state allocation tests
  /// use this after warm-up so sample retention stops growing.
  void set_histogram_max_samples(std::size_t n);

 private:
  // std::map: node-based, so instrument addresses never move.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, DurationHistogram, std::less<>> histograms_;
  std::map<std::string, ValueHistogram, std::less<>> value_histograms_;
};

/// JSON exporter (schema `cim.metrics.v1`, see docs/OBSERVABILITY.md).
void write_json(std::ostream& os, const MetricsSnapshot& snapshot);

/// CSV exporter: one metric per row, header
/// `name,kind,value,count,sum,min,p50,p90,p99,max,mean`.
void write_csv(std::ostream& os, const MetricsSnapshot& snapshot);

}  // namespace cim::obs
