// Trace tooling tests: write ids on the lifecycle events, JSONL round-trip
// through the trace_read parser, per-write span reconstruction (the index
// fed live by mcs::SpanFeed agrees with the JSONL one; propagation
// reproduces isc.propagation_latency; repeated values keep their own
// spans), the Chrome Trace Event exporter's schema, the online monitor's
// detection rules on synthetic streams of typed facts, and its live
// verdicts against a replay of the exported trace.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "checker/online_monitor.h"
#include "helpers.h"
#include "mcs/span_feed.h"
#include "obs/perfetto_export.h"
#include "obs/span_index.h"
#include "obs/trace_read.h"

namespace cim {
namespace {

using obs::ParsedTraceEvent;
using obs::TraceCategory;
using test::X;
using test::Y;

TEST(WriteIdentity, PackingRoundTrips) {
  const ProcId origin{SystemId{3}, 7};
  const WriteId wid = WriteId::make(origin, 42);
  EXPECT_TRUE(wid.valid());
  EXPECT_EQ(wid.origin(), origin);
  EXPECT_EQ(wid.seq(), 42u);
  EXPECT_FALSE(WriteId{}.valid());

  std::ostringstream os;
  os << wid;
  EXPECT_EQ(os.str(), "w(3,7)#42");
}

// Runs a small two-system workload with tracing on and returns the
// federation's trace as JSONL.
std::string traced_run(std::string& out_jsonl, std::size_t writes = 4) {
  isc::FederationConfig cfg = test::two_systems(2, proto::anbkh_protocol(),
                                                proto::anbkh_protocol(), 11);
  cfg.obs.trace.enabled = true;
  isc::Federation fed(std::move(cfg));
  for (std::size_t i = 0; i < writes; ++i) {
    fed.system(0).app(0).write(X, static_cast<Value>(100 + i));
  }
  fed.system(1).app(0).read(X, [](Value) {});
  fed.run();

  std::ostringstream os;
  fed.observability().trace().write_jsonl(os);
  out_jsonl = os.str();

  // Live-side ground truth for the span tests: the propagation histogram.
  const obs::MetricsSnapshot snap = fed.metrics_snapshot();
  const obs::MetricsSnapshot::Entry* prop =
      snap.find("isc.propagation_latency");
  EXPECT_NE(prop, nullptr);
  std::ostringstream truth;
  if (prop != nullptr) {
    truth << prop->summary.count << ' ' << prop->summary.p50.ns << ' '
          << prop->summary.p99.ns << ' ' << prop->summary.max.ns;
  }
  return truth.str();
}

TEST(TraceLifecycle, EveryWriteStageCarriesTheWid) {
  std::string jsonl;
  traced_run(jsonl);
  std::vector<std::string> errors;
  std::istringstream in(jsonl);
  const std::vector<ParsedTraceEvent> events =
      obs::read_trace_jsonl(in, &errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  ASSERT_FALSE(events.empty());

  std::set<std::string> with_wid;
  for (const ParsedTraceEvent& ev : events) {
    if (ev.wid().valid()) with_wid.insert(ev.cat + "." + ev.name);
  }
  // The full v3 lifecycle is stamped.
  for (const char* stage :
       {"mcs.write_issue", "mcs.write_done", "proto.update_issued",
        "proto.update_applied", "net.send", "net.deliver", "isc.pair_out",
        "isc.pair_in"}) {
    EXPECT_TRUE(with_wid.count(stage)) << stage << " never carried a wid";
  }
}

TEST(TraceReadback, JsonlRoundTripPreservesRecords) {
  std::string jsonl;
  traced_run(jsonl);
  std::istringstream in(jsonl);
  std::vector<std::string> errors;
  const std::vector<ParsedTraceEvent> events =
      obs::read_trace_jsonl(in, &errors);
  EXPECT_TRUE(errors.empty());

  // Same number of non-empty lines as records, every record v3 with a
  // monotone seq and a category the schema knows.
  std::size_t lines = 0;
  for (char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(events.size(), lines);
  std::uint64_t prev_seq = 0;
  for (const ParsedTraceEvent& ev : events) {
    EXPECT_EQ(ev.v, obs::kTraceSchemaVersion);
    EXPECT_GE(ev.seq, prev_seq);
    prev_seq = ev.seq;
    EXPECT_FALSE(ev.cat.empty());
    EXPECT_FALSE(ev.name.empty());
  }
}

TEST(TraceReadback, ParserHandlesEscapesAndNesting) {
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::parse_json(
      R"({"a":[1,-2.5,true,null],"b":{"s":"x\"\nA"},"n":18446744073709551615})",
      v, &err))
      << err;
  ASSERT_EQ(v.kind, obs::JsonValue::Kind::kObject);
  const obs::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 4u);
  EXPECT_EQ(a->items[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(a->items[1].as_double(), -2.5);
  EXPECT_EQ(v.find("b")->find("s")->s, "x\"\nA");
  // Full-range u64 (a wid) survives through the two's-complement round-trip.
  EXPECT_EQ(static_cast<std::uint64_t>(v.find("n")->as_int()),
            18446744073709551615ull);

  EXPECT_FALSE(obs::parse_json("{\"a\":}", v, &err));
  EXPECT_FALSE(obs::parse_json("[1,2", v, &err));
  EXPECT_FALSE(obs::parse_json("{} trailing", v, &err));
}

// Reads `fed`'s exported trace back into a fresh index.
obs::SpanIndex offline_spans(isc::Federation& fed) {
  const obs::TraceSink& trace = fed.observability().trace();
  EXPECT_EQ(trace.dropped(), 0u);
  std::ostringstream os;
  trace.write_jsonl(os);
  std::istringstream in(os.str());
  obs::SpanIndex offline;
  offline.index(obs::read_trace_jsonl(in));
  return offline;
}

// The index fed live through mcs::SpanFeed agrees with the one read back
// from JSONL on everything the typed hooks carry: per wid the issue time and
// the (proc, t) apply list, and the stages built from them.
void expect_live_matches_offline(const obs::SpanIndex& live,
                                 const obs::SpanIndex& offline) {
  ASSERT_EQ(live.size(), offline.size());
  for (WriteId wid : live.wids()) {
    const obs::WriteSpan* a = live.span(wid);
    const obs::WriteSpan* b = offline.span(wid);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->issue_t, b->issue_t);
    ASSERT_EQ(a->applies.size(), b->applies.size()) << wid;
    for (std::size_t i = 0; i < a->applies.size(); ++i) {
      EXPECT_EQ(a->applies[i].proc, b->applies[i].proc) << wid;
      EXPECT_EQ(a->applies[i].t, b->applies[i].t) << wid;
    }
  }
  const obs::SpanIndex::StageBreakdown ls = live.stages();
  const obs::SpanIndex::StageBreakdown os = offline.stages();
  EXPECT_EQ(ls.remote_apply, os.remote_apply);
  EXPECT_EQ(ls.fanout_intra, os.fanout_intra);
}

TEST(SpanIndex, LiveAndOfflineAgreeAndPropagationMatchesHistogram) {
  isc::FederationConfig cfg = test::two_systems(2, proto::anbkh_protocol(),
                                                proto::anbkh_protocol(), 23);
  cfg.obs.trace.enabled = true;
  isc::Federation fed(std::move(cfg));
  obs::SpanIndex live;
  mcs::SpanFeed feed(live);
  fed.add_observer(&feed);
  for (Value v = 1; v <= 6; ++v) fed.system(0).app(0).write(X, 100 + v);
  fed.run();

  const obs::SpanIndex offline = offline_spans(fed);
  ASSERT_EQ(live.size(), 6u);
  expect_live_matches_offline(live, offline);

  // Acceptance: the propagation stage reproduces isc.propagation_latency.
  const obs::MetricsSnapshot snap = fed.metrics_snapshot();
  const obs::MetricsSnapshot::Entry* prop =
      snap.find("isc.propagation_latency");
  ASSERT_NE(prop, nullptr);
  const obs::DurationSummary want = prop->summary;
  const obs::DurationSummary got =
      obs::summarize(offline.stages().propagation);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.min.ns, want.min.ns);
  EXPECT_EQ(got.p50.ns, want.p50.ns);
  EXPECT_EQ(got.p90.ns, want.p90.ns);
  EXPECT_EQ(got.p99.ns, want.p99.ns);
  EXPECT_EQ(got.max.ns, want.max.ns);

  // Span JSONL: one line per write, each parseable.
  std::ostringstream spans_os;
  offline.write_spans_jsonl(spans_os);
  std::istringstream spans_in(spans_os.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(spans_in, line)) {
    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::parse_json(line, v, &err)) << err;
    EXPECT_NE(v.find("wid"), nullptr);
    EXPECT_NE(v.find("applies"), nullptr);
    ++parsed;
  }
  EXPECT_EQ(parsed, 6u);

  // AW-seq's IS-process and TOB-causal's writers apply their own writes
  // before the apply pipeline does; those pre-applies are not applies, live
  // as in the trace.
  for (const bool aw_first : {true, false}) {
    SCOPED_TRACE(aw_first ? "aw_seq - tob_causal" : "tob_causal - aw_seq");
    isc::FederationConfig pre = test::two_systems(
        3, aw_first ? proto::aw_seq_protocol() : proto::tob_causal_protocol(),
        aw_first ? proto::tob_causal_protocol() : proto::aw_seq_protocol(), 17);
    pre.obs.trace.enabled = true;
    isc::Federation pre_fed(std::move(pre));
    obs::SpanIndex pre_live;
    mcs::SpanFeed pre_feed(pre_live);
    pre_fed.add_observer(&pre_feed);
    wl::UniformConfig wc;
    wc.ops_per_process = 40;
    wc.seed = 23;
    auto runners = wl::install_uniform(pre_fed, wc);
    pre_fed.run();
    ASSERT_GT(pre_live.size(), 0u);
    expect_live_matches_offline(pre_live, offline_spans(pre_fed));
  }
}

TEST(SpanIndex, RepeatedValuesKeepOneSpanPerWrite) {
  // Two writers in different systems write the same value to the same
  // variable: a value-keyed fold would see one write, the index sees two.
  const sim::Duration l = sim::milliseconds(1);
  const sim::Duration d = sim::milliseconds(10);
  isc::FederationConfig cfg = test::two_systems(2, proto::anbkh_protocol(),
                                                proto::anbkh_protocol(), 5);
  for (mcs::SystemConfig& sc : cfg.systems) {
    sc.intra_delay = [l] { return std::make_unique<net::FixedDelay>(l); };
  }
  cfg.links[0].delay = [d] { return std::make_unique<net::FixedDelay>(d); };
  isc::Federation fed(std::move(cfg));
  obs::SpanIndex spans;
  mcs::SpanFeed feed(spans);
  fed.add_observer(&feed);
  const ProcId a{SystemId{0}, 0};
  const ProcId b{SystemId{1}, 0};
  fed.system(0).app(0).write(X, 7);
  fed.simulator().at(sim::Time{} + sim::milliseconds(3),
                     [&] { fed.system(1).app(0).write(X, 7); });
  fed.run();

  const WriteId wa = WriteId::make(a, 1);
  const WriteId wb = WriteId::make(b, 1);
  ASSERT_EQ(spans.size(), 2u);
  ASSERT_NE(spans.span(wa), nullptr);
  ASSERT_NE(spans.span(wb), nullptr);
  EXPECT_EQ(spans.span(wa)->value, 7);
  EXPECT_EQ(spans.span(wb)->value, 7);
  EXPECT_EQ(spans.span(wa)->issue_t, 0);
  EXPECT_EQ(spans.span(wb)->issue_t, sim::milliseconds(3).ns);
  // Each write reaches its own system's other replica after l and the
  // other system's replicas after 2l + d, on its own clock.
  const ProcId a_peer{SystemId{0}, 1};
  const ProcId b_peer{SystemId{1}, 1};
  const sim::Time b_issue = sim::Time{} + sim::milliseconds(3);
  EXPECT_EQ(spans.apply_time(wa, a_peer), sim::Time{} + l);
  EXPECT_EQ(spans.apply_time(wb, b_peer), b_issue + l);
  EXPECT_EQ(spans.apply_time(wb, a_peer), b_issue + 2 * l + d);
  EXPECT_EQ(spans.visibility(wa, {a, a_peer}), l);
  EXPECT_EQ(spans.visibility(wb, {b, b_peer}), l);
  const std::vector<ProcId> all{a, a_peer, b, b_peer};
  EXPECT_EQ(spans.visibility(wa, all), 2 * l + d);
  EXPECT_EQ(spans.visibility(wb, all), 2 * l + d);
  EXPECT_EQ(spans.visibilities(all).size(), 2u);
}

TEST(PerfettoExport, EmitsValidChromeTraceJson) {
  std::string jsonl;
  traced_run(jsonl);
  std::istringstream in(jsonl);
  const std::vector<ParsedTraceEvent> events = obs::read_trace_jsonl(in);

  std::ostringstream os;
  obs::write_chrome_trace(os, events);

  obs::JsonValue root;
  std::string err;
  ASSERT_TRUE(obs::parse_json(os.str(), root, &err)) << err;
  ASSERT_EQ(root.kind, obs::JsonValue::Kind::kObject);
  const obs::JsonValue* te = root.find("traceEvents");
  ASSERT_NE(te, nullptr);
  ASSERT_EQ(te->kind, obs::JsonValue::Kind::kArray);
  ASSERT_GT(te->items.size(), events.size());  // records + metadata + spans

  std::set<std::string> phases;
  std::set<std::pair<std::int64_t, std::int64_t>> pid_tid;
  for (const obs::JsonValue& ev : te->items) {
    ASSERT_EQ(ev.kind, obs::JsonValue::Kind::kObject);
    // The Trace Event Format's required header on every record.
    const obs::JsonValue* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_EQ(ph->kind, obs::JsonValue::Kind::kString);
    phases.insert(ph->s);
    ASSERT_NE(ev.find("name"), nullptr);
    ASSERT_NE(ev.find("ts"), nullptr);
    EXPECT_TRUE(ev.find("ts")->is_number());
    const obs::JsonValue* pid = ev.find("pid");
    const obs::JsonValue* tid = ev.find("tid");
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    pid_tid.emplace(pid->as_int(), tid->as_int());
    if (ph->s == "X") {
      ASSERT_NE(ev.find("dur"), nullptr);
      EXPECT_GT(ev.find("dur")->as_double(), 0.0);
    }
  }
  // Metadata, instants, async write spans, and derived slices all present.
  for (const char* ph : {"M", "i", "b", "e", "X"}) {
    EXPECT_TRUE(phases.count(ph)) << "no '" << ph << "' events emitted";
  }
  // One track per process: both systems' processes appear.
  std::set<std::int64_t> pids;
  for (const auto& [pid, tid] : pid_tid) pids.insert(pid);
  EXPECT_GE(pids.size(), 2u);
}

// ---- online monitor: detection rules on synthetic streams ------------------
//
// The streams drive the typed hooks, as a federation does live: each read
// names the write it returned (an invalid wid: the initial value).

const ProcId P00{SystemId{0}, 0};
const ProcId P01{SystemId{0}, 1};
const ProcId P10{SystemId{1}, 0};

TEST(OnlineMonitor, FlagsObservableFifoRegression) {
  // P00 writes x then y; a replica that applies y before x is no violation
  // of ⇝ by itself. A read that sees y and then x's initial value observes
  // the inversion: P00's writes reached the reader out of order.
  chk::OnlineMonitor m;
  const WriteId w1 = WriteId::make(P00, 1);
  const WriteId w2 = WriteId::make(P00, 2);
  m.on_write_issue(0, P00, w1, X);
  m.on_write_issue(5, P00, w2, Y);
  m.on_read_done(10, P10, Y, w2);
  m.on_read_done(20, P10, X, WriteId{});  // #1 hidden behind #2
  ASSERT_EQ(m.violation_count(), 1u);
  const chk::Violation& v = m.violations()[0];
  EXPECT_EQ(v.pattern, chk::BadPattern::kWriteCOInitRead);
  EXPECT_EQ(v.label, chk::Guarantee::kMonotonicWrites);
  EXPECT_EQ(v.w1, WriteId{});
  EXPECT_EQ(v.w2, w1);
}

TEST(OnlineMonitor, AtomicBatchInversionAndReapplyAreBenign) {
  // A replica applying a batch inverted, or re-applying a write, changes
  // nothing a read can observe once both writes are in place.
  chk::OnlineMonitor m;
  const WriteId w1 = WriteId::make(P00, 1);
  const WriteId w2 = WriteId::make(P00, 2);
  m.on_write_issue(0, P00, w1, X);
  m.on_write_issue(5, P00, w2, Y);
  m.on_read_done(10, P01, Y, w2);
  m.on_read_done(10, P01, X, w1);
  m.on_read_done(15, P01, Y, w2);
  EXPECT_EQ(m.violation_count(), 0u);
}

TEST(OnlineMonitor, FlagsStaleReadAfterNewerKnowledge) {
  // The paper's Claim-4 history: p writes x=1 then y=2; a reader sees y=2
  // and then reads x's initial value.
  chk::OnlineMonitor m;
  const WriteId w1 = WriteId::make(P00, 1);
  const WriteId w2 = WriteId::make(P00, 2);
  m.on_write_issue(0, P00, w1, X);
  m.on_write_issue(5, P00, w2, Y);
  m.on_read_done(50, P10, Y, w2);         // learns P00 up to #2
  m.on_read_done(60, P10, X, WriteId{});  // stale: #1 wrote x
  ASSERT_EQ(m.violation_count(), 1u);
  const chk::Violation& v = m.violations()[0];
  EXPECT_EQ(v.pattern, chk::BadPattern::kWriteCOInitRead);
  EXPECT_EQ(v.label, chk::Guarantee::kMonotonicWrites);
  EXPECT_EQ(v.t, 60);
  EXPECT_EQ(v.proc, P10);
  EXPECT_EQ(v.var, X);
  EXPECT_EQ(v.w1, WriteId{});
  EXPECT_EQ(v.w2, w1);
}

TEST(OnlineMonitor, NoViolationWithoutCausalKnowledge) {
  chk::OnlineMonitor m;
  const WriteId w1 = WriteId::make(P00, 1);
  const WriteId w2 = WriteId::make(P00, 2);
  m.on_write_issue(0, P00, w1, X);
  m.on_write_issue(5, P00, w2, Y);
  // Reading init before learning anything is fine (propagation delay).
  m.on_read_done(10, P10, X, WriteId{});
  m.on_read_done(11, P10, Y, WriteId{});
  // Reading the newest known same-origin write is fine too.
  m.on_read_done(50, P10, Y, w2);
  m.on_read_done(60, P10, X, w1);
  EXPECT_EQ(m.violation_count(), 0u);
}

TEST(OnlineMonitor, FlagsReadRegression) {
  chk::OnlineMonitor m;
  const WriteId w1 = WriteId::make(P00, 1);
  const WriteId w2 = WriteId::make(P00, 2);
  m.on_write_issue(0, P00, w1, X);
  m.on_write_issue(5, P00, w2, X);
  m.on_read_done(50, P10, X, w2);
  m.on_read_done(60, P10, X, w1);  // same origin, older seq: regression
  ASSERT_EQ(m.violation_count(), 1u);
  const chk::Violation& v = m.violations()[0];
  EXPECT_EQ(v.pattern, chk::BadPattern::kWriteCORead);
  EXPECT_EQ(v.label, chk::Guarantee::kMonotonicReads);
  EXPECT_EQ(v.w1, w1);
  EXPECT_EQ(v.w2, w2);
}

TEST(OnlineMonitor, LiveVerdictsIgnoreValues) {
  // Two origins write the same value to x: P00 writes x=5 (#1) then x=6
  // (#2); P10 writes y=3 (#1) then x=5 (#2). Telling its two writes apart
  // by the value 5 would send a reader of P10's x=5 to P00's #1: a false
  // regression after reading x=6, and a Claim-4 read missed, since the
  // reader would learn P00 instead of P10. The hooks carry the wid the
  // replica stored, so neither happens.
  chk::OnlineMonitor m;
  const WriteId a1 = WriteId::make(P00, 1);  // x=5
  const WriteId a2 = WriteId::make(P00, 2);  // x=6
  const WriteId b1 = WriteId::make(P10, 1);  // y=3
  const WriteId b2 = WriteId::make(P10, 2);  // x=5
  m.on_write_issue(0, P00, a1, X);
  m.on_write_issue(1, P00, a2, X);
  m.on_write_issue(2, P10, b1, Y);
  m.on_write_issue(3, P10, b2, X);
  m.on_read_done(10, P01, X, a2);  // x=6
  m.on_read_done(20, P01, X, b2);  // x=5, P10's: learns P10 up to #2
  EXPECT_EQ(m.violation_count(), 0u);
  // Claim 4: P10 wrote y before its x=5, which the reader has seen.
  m.on_read_done(30, P01, Y, WriteId{});
  ASSERT_EQ(m.violation_count(), 1u);
  const chk::Violation& v = m.violations()[0];
  EXPECT_EQ(v.pattern, chk::BadPattern::kWriteCOInitRead);
  EXPECT_EQ(v.label, chk::Guarantee::kMonotonicWrites);
  EXPECT_EQ(v.proc, P01);
  EXPECT_EQ(v.var, Y);
  EXPECT_EQ(v.w1, WriteId{});
  EXPECT_EQ(v.w2, b1);
}

TEST(OnlineMonitor, FlagsTransitiveWritesFollowReads) {
  // P00 writes x; P01 reads it and writes y; P10 reads y and then x's
  // initial value. The reader learned of x=1 only through P01's read, a
  // chain the monitor follows through y's stored frontier.
  chk::OnlineMonitor m;
  const WriteId wx = WriteId::make(P00, 1);
  const WriteId wy = WriteId::make(P01, 1);
  m.on_write_issue(0, P00, wx, X);
  m.on_read_done(5, P01, X, wx);
  m.on_write_issue(6, P01, wy, Y);
  m.on_read_done(10, P10, Y, wy);
  m.on_read_done(11, P10, X, WriteId{});
  ASSERT_EQ(m.violation_count(), 1u);
  const chk::Violation& v = m.violations()[0];
  EXPECT_EQ(v.pattern, chk::BadPattern::kWriteCOInitRead);
  EXPECT_EQ(v.label, chk::Guarantee::kWritesFollowReads);
  EXPECT_EQ(v.w2, wx);
}

TEST(OnlineMonitor, ReissuedForeignWriteCarriesOnlyItsOwnEntry) {
  // A mesh node sees a foreign write only as its IS-process's re-issue, so
  // the write's causal past is unknown: the same chain as above, with wy
  // re-issued rather than issued at its origin, is not convicted.
  const ProcId isp{SystemId{1}, 9};
  chk::OnlineMonitor m;
  const WriteId wx = WriteId::make(P00, 1);
  const WriteId wy = WriteId::make(P01, 1);
  m.on_write_issue(0, isp, wx, X);
  m.on_write_issue(6, isp, wy, Y);
  m.on_read_done(10, P10, Y, wy);
  m.on_read_done(11, P10, X, WriteId{});
  EXPECT_EQ(m.violation_count(), 0u);
}

TEST(OnlineMonitor, OwnWriteOutlivesAnyNumberOfLaterWrites) {
  // A read names its write through the replica, so no number of later
  // writes makes the monitor forget which write a read returned: the
  // writer of x=1 reads x=1 back after 70 000 writes to y.
  isc::FederationConfig cfg = test::single_system(2, proto::anbkh_protocol());
  cfg.monitor.enabled = true;
  isc::Federation fed(std::move(cfg));
  mcs::AppProcess& app = fed.system(0).app(0);
  app.write(X, 1);
  for (Value v = 2; v < 2 + 70'000; ++v) app.write(Y, v);
  Value got = kInitValue;
  app.read(X, [&got](Value v) { got = v; });
  fed.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(fed.monitor()->violation_count(), 0u);
  // The retained state does not grow with the run: one log per (origin,
  // variable) written, each capped.
  EXPECT_EQ(fed.monitor()->retained_writes(),
            1 + chk::OnlineMonitor::kWritesPerLog);
}

TEST(OnlineMonitor, DisabledFederationMonitorAddsNothing) {
  isc::FederationConfig cfg = test::two_systems(2, proto::anbkh_protocol(),
                                                proto::anbkh_protocol(), 5);
  // monitor.enabled stays false.
  isc::Federation fed(std::move(cfg));
  EXPECT_EQ(fed.monitor(), nullptr);
  EXPECT_FALSE(fed.observability().trace().enabled());
  fed.system(0).app(0).write(X, 1);
  fed.run();
  EXPECT_EQ(fed.observability().trace().recorded(), 0u);
}

TEST(OnlineMonitor, EnabledFederationMonitorLeavesTracingOff) {
  isc::FederationConfig cfg = test::two_systems(2, proto::anbkh_protocol(),
                                                proto::anbkh_protocol(), 5);
  cfg.monitor.enabled = true;  // note: obs.trace.enabled left false
  isc::Federation fed(std::move(cfg));
  ASSERT_NE(fed.monitor(), nullptr);
  // The monitor is fed by the observer hooks, not by the trace sink.
  EXPECT_FALSE(fed.observability().trace().enabled());
  EXPECT_FALSE(fed.observability().trace().buffer_allocated());
  fed.system(0).app(0).write(X, 1);
  fed.system(1).app(0).read(X, [](Value) {});
  fed.run();
  EXPECT_EQ(fed.observability().trace().recorded(), 0u);
  EXPECT_GT(fed.monitor()->events_seen(), 0u);
  EXPECT_EQ(fed.monitor()->violation_count(), 0u);  // ANBKH is causal
}

// ---- online monitor: the live verdicts match a replay of the trace ---------

// Exports `fed`'s trace, replays it through a fresh monitor, and expects the
// replayed violations to equal the live monitor's, record for record.
void expect_replay_matches_live(isc::Federation& fed) {
  const obs::TraceSink& trace = fed.observability().trace();
  ASSERT_TRUE(trace.enabled());
  ASSERT_EQ(trace.dropped(), 0u);
  std::ostringstream os;
  trace.write_jsonl(os);
  std::istringstream in(os.str());
  std::vector<std::string> errors;
  chk::OnlineMonitor replay;
  for (const ParsedTraceEvent& ev : obs::read_trace_jsonl(in, &errors)) {
    replay.observe(ev);
  }
  ASSERT_TRUE(errors.empty()) << errors.front();

  ASSERT_NE(fed.monitor(), nullptr);
  const std::vector<chk::Violation>& live = fed.monitor()->violations();
  const std::vector<chk::Violation>& replayed = replay.violations();
  EXPECT_EQ(fed.monitor()->violation_count(), replay.violation_count());
  ASSERT_EQ(live.size(), replayed.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    SCOPED_TRACE("violation " + std::to_string(i));
    EXPECT_EQ(live[i].pattern, replayed[i].pattern);
    EXPECT_EQ(live[i].label, replayed[i].label);
    EXPECT_EQ(live[i].t, replayed[i].t);
    EXPECT_EQ(live[i].proc, replayed[i].proc);
    EXPECT_EQ(live[i].var, replayed[i].var);
    EXPECT_EQ(live[i].w1, replayed[i].w1);
    EXPECT_EQ(live[i].w2, replayed[i].w2);
  }
}

TEST(OnlineMonitor, ReplayMatchesLiveOnTheSection3Counterexample) {
  for (const isc::IsProtocolChoice choice :
       {isc::IsProtocolChoice::kForceProtocol1, isc::IsProtocolChoice::kAuto}) {
    SCOPED_TRACE(choice == isc::IsProtocolChoice::kAuto ? "auto" : "forced 1");
    isc::FederationConfig cfg = test::counterexample_config(choice);
    cfg.monitor.enabled = true;
    cfg.obs.trace.enabled = true;
    isc::Federation fed(std::move(cfg));
    test::Probe probe;
    test::run_counterexample(fed, probe);
    // Protocol 1 alone is convicted live; protocol 2 repairs the run.
    EXPECT_EQ(fed.monitor()->violations().empty(),
              choice == isc::IsProtocolChoice::kAuto);
    expect_replay_matches_live(fed);
  }
}

TEST(OnlineMonitor, ReplayMatchesLiveAcrossPreApplyingIsProcesses) {
  // AW-seq's IS-process and TOB-causal's writers apply their own writes
  // before the apply pipeline re-applies (or skips) them; the monitor reads
  // neither, live or in the trace: it sees issues and reads only.
  for (const bool aw_first : {true, false}) {
    SCOPED_TRACE(aw_first ? "aw_seq - tob_causal" : "tob_causal - aw_seq");
    isc::FederationConfig cfg = test::two_systems(
        3, aw_first ? proto::aw_seq_protocol() : proto::tob_causal_protocol(),
        aw_first ? proto::tob_causal_protocol() : proto::aw_seq_protocol(), 17);
    cfg.monitor.enabled = true;
    cfg.obs.trace.enabled = true;
    isc::Federation fed(std::move(cfg));
    wl::UniformConfig wc;
    wc.ops_per_process = 40;
    wc.seed = 23;
    auto runners = wl::install_uniform(fed, wc);
    fed.run();
    EXPECT_GT(fed.monitor()->events_seen(), 0u);
    EXPECT_TRUE(fed.monitor()->violations().empty());
    expect_replay_matches_live(fed);
  }
}

}  // namespace
}  // namespace cim
