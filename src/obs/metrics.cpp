#include "obs/metrics.h"

#include <algorithm>
#include <ostream>

#include "obs/json.h"

namespace cim::obs {

void Int64Histogram::decimate() {
  // Keep every 2nd retained sample and double the keep stride: memory is
  // bounded at max_samples_ while the retained set stays an (approximately)
  // uniform stride sample of the full observation stream.
  std::size_t out = 0;
  for (std::size_t in = 0; in < samples_.size(); in += 2) {
    samples_[out++] = samples_[in];
  }
  samples_.resize(out);
  stride_ *= 2;
}

DurationSummary Int64Histogram::summary() const {
  std::vector<sim::Duration> durations;
  durations.reserve(samples_.size());
  for (std::int64_t v : samples_) durations.push_back(sim::Duration{v});
  DurationSummary s = summarize(std::move(durations));
  // Percentiles come from the (possibly decimated) retained samples; count,
  // mean, and the extremes are exact.
  s.count = static_cast<std::size_t>(count_);
  s.min = sim::Duration{min_};
  s.max = sim::Duration{max_};
  if (count_ > 0) s.mean_ns = static_cast<double>(sum_) / count_;
  return s;
}

const MetricsSnapshot::Entry* MetricsSnapshot::find(
    std::string_view name) const {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

DurationHistogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), DurationHistogram{}).first;
  }
  return it->second;
}

ValueHistogram& MetricsRegistry::value_histogram(std::string_view name) {
  auto it = value_histograms_.find(name);
  if (it == value_histograms_.end()) {
    it = value_histograms_.emplace(std::string(name), ValueHistogram{}).first;
  }
  return it->second;
}

void MetricsRegistry::set_histogram_max_samples(std::size_t n) {
  for (auto& [name, h] : histograms_) h.set_max_samples(n);
  for (auto& [name, h] : value_histograms_) h.set_max_samples(n);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  for (const auto& [name, c] : counters_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::kCounter;
    e.value = static_cast<std::int64_t>(c.value());
    out.entries.push_back(std::move(e));
  }
  for (const auto& [name, g] : gauges_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::kGauge;
    e.value = g.value();
    out.entries.push_back(std::move(e));
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::kHistogram;
    e.summary = h.summary();
    e.sum = h.sum();
    out.entries.push_back(std::move(e));
  }
  for (const auto& [name, h] : value_histograms_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::kValueHistogram;
    e.summary = h.summary();
    e.sum = h.sum();
    out.entries.push_back(std::move(e));
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return out;
}

namespace {

const char* kind_name(MetricsSnapshot::Kind k) {
  switch (k) {
    case MetricsSnapshot::Kind::kCounter: return "counter";
    case MetricsSnapshot::Kind::kGauge: return "gauge";
    case MetricsSnapshot::Kind::kHistogram: return "histogram";
    case MetricsSnapshot::Kind::kValueHistogram: return "value_histogram";
  }
  return "?";
}

bool is_histogram(MetricsSnapshot::Kind k) {
  return k == MetricsSnapshot::Kind::kHistogram ||
         k == MetricsSnapshot::Kind::kValueHistogram;
}

}  // namespace

void write_json(std::ostream& os, const MetricsSnapshot& snapshot) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "cim.metrics.v1");
  w.kv("v", kMetricsSchemaVersion);
  // Provenance header (schema v5): lets an aggregator refuse or flag
  // snapshots from a different schema or build instead of silently merging
  // incomparable gauges.
  w.key("meta");
  w.begin_object();
  w.kv("schema_version", kMetricsSchemaVersion);
#if defined(CIM_GIT_SHA)
  w.kv("git_sha", CIM_GIT_SHA);
#else
  w.kv("git_sha", "unknown");
#endif
  w.end_object();
  w.key("metrics");
  w.begin_array();
  for (const MetricsSnapshot::Entry& e : snapshot.entries) {
    w.begin_object();
    w.kv("name", std::string_view(e.name));
    w.kv("kind", kind_name(e.kind));
    if (is_histogram(e.kind)) {
      w.kv("count", static_cast<std::uint64_t>(e.summary.count));
      w.kv("sum", e.sum);
      w.kv("min", e.summary.min.ns);
      w.kv("p50", e.summary.p50.ns);
      w.kv("p90", e.summary.p90.ns);
      w.kv("p99", e.summary.p99.ns);
      w.kv("max", e.summary.max.ns);
      w.kv("mean", e.summary.mean_ns);
    } else {
      w.kv("value", e.value);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_csv(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << "name,kind,value,count,sum,min,p50,p90,p99,max,mean\n";
  for (const MetricsSnapshot::Entry& e : snapshot.entries) {
    os << e.name << ',' << kind_name(e.kind) << ',';
    if (is_histogram(e.kind)) {
      os << ',' << e.summary.count << ',' << e.sum << ',' << e.summary.min.ns
         << ',' << e.summary.p50.ns << ',' << e.summary.p90.ns << ','
         << e.summary.p99.ns << ',' << e.summary.max.ns << ','
         << e.summary.mean_ns;
    } else {
      os << e.value << ",,,,,,,,";
    }
    os << '\n';
  }
}

}  // namespace cim::obs
