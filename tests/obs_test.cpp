// Observability layer tests: metric/histogram semantics, trace-sink ring
// behaviour, exporter output shapes, and — crucially — the schema contract:
// every metric and trace-event name the instrumentation emits must appear in
// docs/OBSERVABILITY.md (see "Schemas are versioned" there).
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "helpers.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace cim {
namespace {

using obs::TraceCategory;

// ---- metrics ---------------------------------------------------------------

TEST(ObsMetrics, CounterAndGaugeSemantics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.counter");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge& g = reg.gauge("test.gauge");
  g.set(-5);
  g.add(15);
  EXPECT_EQ(g.value(), 10);
}

TEST(ObsMetrics, UpsertReturnsStableAddresses) {
  obs::MetricsRegistry reg;
  obs::Counter* a = &reg.counter("test.counter");
  // Registering other metrics must not move existing cells: instrumented
  // code caches these pointers at construction.
  for (int i = 0; i < 100; ++i) {
    reg.counter("test.counter_" + std::to_string(i));
  }
  EXPECT_EQ(a, &reg.counter("test.counter"));
  a->inc();
  EXPECT_EQ(reg.counter("test.counter").value(), 1u);
}

TEST(ObsMetrics, HistogramExactAggregatesAndPercentiles) {
  obs::DurationHistogram h;
  std::vector<sim::Duration> samples;
  for (std::int64_t v : {30, 10, 50, 20, 40}) {
    h.observe(sim::Duration{v});
    samples.push_back(sim::Duration{v});
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 150);

  const obs::DurationSummary got = h.summary();
  const obs::DurationSummary want = obs::summarize(samples);
  EXPECT_EQ(got.count, 5u);
  EXPECT_EQ(got.min.ns, 10);
  EXPECT_EQ(got.max.ns, 50);
  EXPECT_EQ(got.p50.ns, want.p50.ns);
  EXPECT_EQ(got.p90.ns, want.p90.ns);
  EXPECT_EQ(got.p99.ns, want.p99.ns);
  EXPECT_DOUBLE_EQ(got.mean_ns, 30.0);
}

TEST(ObsMetrics, HistogramDecimationKeepsExactAggregates) {
  obs::Int64Histogram h;
  h.set_max_samples(16);
  const std::int64_t n = 1000;
  for (std::int64_t v = 1; v <= n; ++v) h.observe(v);

  // Decimation bounds retained samples but count/sum/min/max stay exact.
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(h.sum(), n * (n + 1) / 2);
  const obs::DurationSummary s = h.summary();
  EXPECT_EQ(s.count, static_cast<std::size_t>(n));
  EXPECT_EQ(s.min.ns, 1);
  EXPECT_EQ(s.max.ns, n);
  EXPECT_DOUBLE_EQ(s.mean_ns, 500.5);
  // Percentiles are stride-sampled approximations; they must stay ordered
  // and inside the exact range.
  EXPECT_LE(s.min.ns, s.p50.ns);
  EXPECT_LE(s.p50.ns, s.p90.ns);
  EXPECT_LE(s.p90.ns, s.p99.ns);
  EXPECT_LE(s.p99.ns, s.max.ns);
}

TEST(ObsMetrics, HistogramDecimationAcrossDefaultCap) {
  // Cross the default 2^20 retained-sample cap with a linear ramp: the
  // aggregates must stay exact and the stride-sampled percentiles must stay
  // close to the true order statistics of the ramp.
  obs::Int64Histogram h;
  const std::int64_t n = (std::int64_t{1} << 20) + 300000;  // ~1.35M
  for (std::int64_t v = 1; v <= n; ++v) h.observe(v);

  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(h.sum(), n * (n + 1) / 2);
  const obs::DurationSummary s = h.summary();
  EXPECT_EQ(s.count, static_cast<std::size_t>(n));
  EXPECT_EQ(s.min.ns, 1);
  EXPECT_EQ(s.max.ns, n);
  EXPECT_DOUBLE_EQ(s.mean_ns, double(n + 1) / 2.0);
  // For a ramp the true pXX is XX% of n; allow 2% of n of stride error.
  const double tol = 0.02 * double(n);
  EXPECT_NEAR(double(s.p50.ns), 0.50 * double(n), tol);
  EXPECT_NEAR(double(s.p90.ns), 0.90 * double(n), tol);
  EXPECT_NEAR(double(s.p99.ns), 0.99 * double(n), tol);
  EXPECT_LE(s.min.ns, s.p50.ns);
  EXPECT_LE(s.p50.ns, s.p90.ns);
  EXPECT_LE(s.p90.ns, s.p99.ns);
  EXPECT_LE(s.p99.ns, s.max.ns);
}

TEST(ObsMetrics, SnapshotSortedByNameAndFindable) {
  obs::MetricsRegistry reg;
  reg.counter("z.last").inc(3);
  reg.gauge("a.first").set(-1);
  reg.histogram("m.middle").observe(sim::Duration{7});

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  for (std::size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);
  }
  const obs::MetricsSnapshot::Entry* e = snap.find("z.last");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, obs::MetricsSnapshot::Kind::kCounter);
  EXPECT_EQ(e->value, 3);
  EXPECT_EQ(snap.find("no.such.metric"), nullptr);
}

TEST(ObsMetrics, JsonExporterShape) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("b.gauge").set(-7);

  std::ostringstream os;
  obs::write_json(os, reg.snapshot());
  // v5: the meta header embeds the schema version and the build's git SHA
  // (the same CIM_GIT_SHA the bench reports carry).
#if defined(CIM_GIT_SHA)
  const std::string sha = CIM_GIT_SHA;
#else
  const std::string sha = "unknown";
#endif
  EXPECT_EQ(os.str(),
            "{\"schema\":\"cim.metrics.v1\",\"v\":5,"
            "\"meta\":{\"schema_version\":5,\"git_sha\":\"" + sha + "\"},"
            "\"metrics\":["
            "{\"name\":\"a.count\",\"kind\":\"counter\",\"value\":3},"
            "{\"name\":\"b.gauge\",\"kind\":\"gauge\",\"value\":-7}]}\n");
}

TEST(ObsMetrics, JsonExporterHistogramFields) {
  obs::MetricsRegistry reg;
  obs::DurationHistogram& h = reg.histogram("c.lat");
  h.observe(sim::Duration{10});
  h.observe(sim::Duration{20});

  std::ostringstream os;
  obs::write_json(os, reg.snapshot());
  const std::string json = os.str();
  // Histograms carry the documented aggregate fields, not "value".
  for (const char* key :
       {"\"count\":2", "\"sum\":30", "\"min\":10", "\"max\":20", "\"p50\":",
        "\"p90\":", "\"p99\":", "\"mean\":15", "\"kind\":\"histogram\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  EXPECT_EQ(json.find("\"value\""), std::string::npos) << json;
}

TEST(ObsMetrics, CsvExporterShape) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.histogram("c.lat").observe(sim::Duration{10});

  std::ostringstream os;
  obs::write_csv(os, reg.snapshot());
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "name,kind,value,count,sum,min,p50,p90,p99,max,mean");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.substr(0, 16), "a.count,counter,");
  ASSERT_TRUE(std::getline(lines, line));
  // Histogram rows leave the counter/gauge "value" cell empty.
  EXPECT_EQ(line.substr(0, 18), "c.lat,histogram,,1");
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(ObsMetrics, CsvExporterGaugeAndValueHistogramRows) {
  obs::MetricsRegistry reg;
  reg.gauge("b.gauge").set(-7);
  reg.value_histogram("d.depth").observe(4);

  std::ostringstream os;
  obs::write_csv(os, reg.snapshot());
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // header
  ASSERT_TRUE(std::getline(lines, line));
  // Gauges carry a value and leave the histogram cells empty.
  EXPECT_EQ(line.substr(0, 16), "b.gauge,gauge,-7");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.substr(0, 8), "d.depth,");
  EXPECT_FALSE(std::getline(lines, line));
}

// ---- trace sink ------------------------------------------------------------

TEST(ObsTrace, DisabledSinkRecordsNothingAndAllocatesNothing) {
  obs::TraceSink sink;  // default: disabled
  EXPECT_FALSE(sink.enabled());
  EXPECT_FALSE(sink.buffer_allocated());

  int field_evals = 0;
  const auto expensive = [&field_evals] {
    ++field_evals;
    return std::int64_t{7};
  };
  CIM_TRACE(&sink, sim::Time{1}, TraceCategory::kNet, "send",
            {{"v", expensive()}});
  obs::TraceSink* null_sink = nullptr;
  CIM_TRACE(null_sink, sim::Time{1}, TraceCategory::kNet, "send",
            {{"v", expensive()}});

  // The macro must not construct fields, let alone record, when disabled.
  EXPECT_EQ(field_evals, 0);
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_FALSE(sink.buffer_allocated());
  EXPECT_EQ(sink.category_count(TraceCategory::kNet), 0u);
}

TEST(ObsTrace, RingWraparoundKeepsNewestOldestFirst) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.capacity = 4;
  obs::TraceSink sink(opts);
  EXPECT_TRUE(sink.buffer_allocated());

  for (std::int64_t i = 0; i < 10; ++i) {
    sink.record(sim::Time{i}, TraceCategory::kNet, "send", {{"i", i}});
  }
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  EXPECT_EQ(sink.category_count(TraceCategory::kNet), 10u);

  std::vector<std::uint64_t> seqs;
  sink.for_each([&seqs](const obs::TraceEvent& ev) { seqs.push_back(ev.seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST(ObsTrace, CategoryMaskFiltersAtRecordTime) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.capacity = 8;
  opts.category_mask = obs::category_bit(TraceCategory::kNet);
  obs::TraceSink sink(opts);

  EXPECT_TRUE(sink.enabled(TraceCategory::kNet));
  EXPECT_FALSE(sink.enabled(TraceCategory::kProto));
  sink.record(sim::Time{1}, TraceCategory::kNet, "send", {});
  sink.record(sim::Time{2}, TraceCategory::kProto, "update_issued", {});
  EXPECT_EQ(sink.recorded(), 1u);
  EXPECT_EQ(sink.category_count(TraceCategory::kNet), 1u);
  EXPECT_EQ(sink.category_count(TraceCategory::kProto), 0u);
}

TEST(ObsTrace, JsonlRendersEveryFieldType) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.capacity = 8;
  obs::TraceSink sink(opts);

  sink.record(sim::Time{42}, TraceCategory::kIsc, "pair_in",
              {{"proc", ProcId{SystemId{1}, 4}},
               {"var", VarId{3}},
               {"lat", sim::Duration{-5}},
               {"rate", 0.5},
               {"type", "vc.update"}});

  std::ostringstream os;
  sink.write_jsonl(os);
  EXPECT_EQ(os.str(),
            "{\"v\":4,\"seq\":0,\"t\":42,\"cat\":\"isc\",\"ev\":\"pair_in\","
            "\"f\":{\"proc\":\"1.4\",\"var\":3,\"lat\":-5,\"rate\":0.5,"
            "\"type\":\"vc.update\"}}\n");
}

TEST(ObsTrace, ClearResetsCountersKeepsCapacity) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.capacity = 4;
  obs::TraceSink sink(opts);
  sink.record(sim::Time{1}, TraceCategory::kMcs, "read_issue", {});
  ASSERT_EQ(sink.recorded(), 1u);

  sink.clear();
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.category_count(TraceCategory::kMcs), 0u);
  EXPECT_EQ(sink.capacity(), 4u);

  std::ostringstream os;
  sink.write_jsonl(os);
  EXPECT_TRUE(os.str().empty());
}

// ---- federation integration + schema contract ------------------------------

TEST(ObsFederation, TracingDisabledByDefault) {
  isc::Federation fed(test::two_systems(2, proto::anbkh_protocol(),
                                        proto::anbkh_protocol()));
  fed.system(0).app(0).write(VarId{0}, 1);
  fed.run();
  EXPECT_FALSE(fed.observability().trace().enabled());
  EXPECT_FALSE(fed.observability().trace().buffer_allocated());
  EXPECT_EQ(fed.observability().trace().recorded(), 0u);
  // Metrics, by contrast, are always on.
  const obs::MetricsSnapshot snap = fed.metrics_snapshot();
  const obs::MetricsSnapshot::Entry* sent = snap.find("net.messages_sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_GT(sent->value, 0);
}

// Runs a small interconnected workload with tracing on and checks the schema
// contract: every metric name and every trace event name that the
// instrumentation actually emitted appears (backticked) in
// docs/OBSERVABILITY.md. Adding an undocumented metric or event fails here.
TEST(ObsFederation, EveryEmittedNameIsDocumented) {
  isc::FederationConfig cfg = test::two_systems(2, proto::anbkh_protocol(),
                                                proto::lazy_batch_protocol());
  cfg.obs.trace.enabled = true;
  isc::Federation fed(std::move(cfg));
  for (std::uint16_t s = 0; s < 2; ++s) {
    for (Value v = 1; v <= 5; ++v) {
      fed.system(s).app(0).write(VarId{static_cast<std::uint32_t>(v % 3)},
                                 10 * (s + 1) + v);
    }
    fed.system(s).app(1).read(VarId{0}, [](Value) {});
  }
  fed.run();

  std::ifstream doc_file(CIM_SOURCE_DIR "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(doc_file.is_open()) << "docs/OBSERVABILITY.md missing";
  std::stringstream buf;
  buf << doc_file.rdbuf();
  const std::string doc = buf.str();

  // Per-instance metric families (net.channel.3.dropped) are documented once
  // with a placeholder (net.channel.<ch>.dropped): normalize every numeric
  // dotted segment before the doc lookup.
  const auto doc_name = [](const std::string& name) {
    std::string out;
    std::size_t pos = 0;
    while (pos < name.size()) {
      std::size_t dot = name.find('.', pos);
      if (dot == std::string::npos) dot = name.size();
      const std::string seg = name.substr(pos, dot - pos);
      const bool numeric =
          !seg.empty() && seg.find_first_not_of("0123456789") == std::string::npos;
      out += numeric ? "<ch>" : seg;
      if (dot < name.size()) out += '.';
      pos = dot + 1;
    }
    return out;
  };

  const obs::MetricsSnapshot snap = fed.metrics_snapshot();
  EXPECT_GE(snap.entries.size(), 20u);  // the full stack is instrumented
  for (const obs::MetricsSnapshot::Entry& e : snap.entries) {
    const std::string name = doc_name(e.name);
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "metric `" << e.name << "` is not documented in OBSERVABILITY.md";
  }

  const obs::TraceSink& trace = fed.observability().trace();
  EXPECT_GT(trace.recorded(), 0u);
  std::set<std::string> events;
  trace.for_each([&events](const obs::TraceEvent& ev) {
    events.insert(std::string("`") + ev.name + "`");
    events.insert(std::string("Category `") + obs::to_string(ev.cat) + "`");
  });
  EXPECT_GE(events.size(), 2u);
  for (const std::string& needle : events) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << needle << " is not documented in OBSERVABILITY.md";
  }

  // Spot-check that the key cross-layer metrics actually moved.
  for (const char* name : {"net.messages_sent", "mcs.writes",
                           "proto.updates_applied", "isc.pairs_sent",
                           "isc.pairs_received"}) {
    const obs::MetricsSnapshot::Entry* e = snap.find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_GT(e->value, 0) << name;
  }
  const obs::MetricsSnapshot::Entry* prop =
      snap.find("isc.propagation_latency");
  ASSERT_NE(prop, nullptr);
  EXPECT_GT(prop->summary.count, 0u);
}

}  // namespace
}  // namespace cim
