// Unit tests: workload generators, response statistics, the table printer
// and SpanIndex's visibility queries.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "checker/history.h"
#include "helpers.h"
#include "obs/span_index.h"
#include "obs/table.h"

namespace cim {
namespace {

using test::X;

TEST(UniqueValueSource, ValuesAreUniqueAndNonInitial) {
  wl::UniqueValueSource src;
  std::set<Value> seen;
  for (int i = 0; i < 1000; ++i) {
    const Value v = src.next();
    EXPECT_NE(v, kInitValue);
    EXPECT_TRUE(seen.insert(v).second);
  }
}

TEST(UniformScript, RespectsLengthAndWriteFraction) {
  wl::UniformConfig cfg;
  cfg.ops_per_process = 1000;
  cfg.write_fraction = 0.3;
  cfg.num_vars = 5;
  Rng rng(1);
  wl::UniqueValueSource values;
  auto script = wl::uniform_script(cfg, rng, values);
  ASSERT_EQ(script.size(), 1000u);
  int writes = 0;
  for (const auto& step : script) {
    EXPECT_LT(step.var.value, 5u);
    if (step.kind == chk::OpKind::kWrite) ++writes;
  }
  EXPECT_GT(writes, 220);
  EXPECT_LT(writes, 380);
}

TEST(UniformScript, HotspotSkewsWrites) {
  wl::UniformConfig cfg;
  cfg.ops_per_process = 2000;
  cfg.write_fraction = 1.0;
  cfg.num_vars = 10;
  cfg.hotspot = 0.8;
  Rng rng(2);
  wl::UniqueValueSource values;
  auto script = wl::uniform_script(cfg, rng, values);
  int hot = 0;
  for (const auto& step : script) {
    if (step.var == VarId{0}) ++hot;
  }
  EXPECT_GT(hot, 1400);
}

TEST(UniformScript, DeterministicForSameSeed) {
  wl::UniformConfig cfg;
  cfg.ops_per_process = 50;
  Rng r1(9), r2(9);
  wl::UniqueValueSource v1, v2;
  auto a = wl::uniform_script(cfg, r1, v1);
  auto b = wl::uniform_script(cfg, r2, v2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].var, b[i].var);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(ScriptRunner, RunsAllStepsAndSignalsCompletion) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  std::vector<wl::Step> script{wl::write_step(X, 1), wl::read_step(X),
                               wl::write_step(X, 2)};
  wl::ScriptRunner runner(fed.simulator(), fed.system(0).app(0),
                          std::move(script), sim::milliseconds(1),
                          sim::milliseconds(2), 5);
  bool finished = false;
  runner.on_finished = [&] { finished = true; };
  runner.start();
  fed.run();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(runner.done());
  EXPECT_EQ(runner.steps_completed(), 3u);
}

TEST(RelayDriver, FiresOnceTriggerObserved) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  wl::RelayDriver relay(fed.simulator(), fed.system(0).app(1), X, 5, VarId{1},
                        6, sim::milliseconds(1));
  relay.start();
  fed.simulator().at(sim::Time{} + sim::milliseconds(10),
                     [&] { fed.system(0).app(0).write(X, 5); });
  fed.run();
  EXPECT_TRUE(relay.fired());
}

// SpanIndex's visibility queries, fed through the typed ingest the way
// mcs::SpanFeed feeds it: the writer's own pre-apply is not an apply.
TEST(SpanIndex, TracksIssueAndFirstApply) {
  obs::SpanIndex spans;
  const ProcId w{SystemId{0}, 0};
  const ProcId r{SystemId{0}, 1};
  const WriteId wid = WriteId::make(w, 1);
  spans.on_write_issue(100, w, wid, X, 1);
  spans.on_update_applied(400, r, wid, -1);
  spans.on_update_applied(900, r, wid, -1);  // later re-apply ignored

  EXPECT_EQ(spans.span(wid)->issue_t, 100);
  EXPECT_EQ(spans.apply_time(wid, r), sim::Time{400});
  auto v = spans.visibility(wid, {w, r});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, sim::Duration{300});
}

TEST(SpanIndex, MissingTargetYieldsNullopt) {
  obs::SpanIndex spans;
  const ProcId w{SystemId{0}, 0};
  const ProcId r{SystemId{0}, 1};
  const WriteId wid = WriteId::make(w, 1);
  spans.on_write_issue(0, w, wid, X, 1);
  EXPECT_FALSE(spans.visibility(wid, {r}).has_value());
  EXPECT_FALSE(spans.worst_visibility({r}).has_value());
}

TEST(SpanIndex, WorstVisibilityIsMaximum) {
  obs::SpanIndex spans;
  const ProcId w{SystemId{0}, 0};
  const ProcId r{SystemId{0}, 1};
  const WriteId first = WriteId::make(w, 1);
  const WriteId second = WriteId::make(w, 2);
  spans.on_write_issue(0, w, first, X, 1);
  spans.on_update_applied(50, r, first, -1);
  spans.on_write_issue(100, w, second, X, 2);
  spans.on_update_applied(350, r, second, -1);
  auto worst = spans.worst_visibility({r});
  ASSERT_TRUE(worst.has_value());
  EXPECT_EQ(*worst, sim::Duration{250});
  EXPECT_EQ(spans.visibilities({r}).size(), 2u);
}

TEST(SpanIndex, OriginCountsAsVisibleAtIssue) {
  obs::SpanIndex spans;
  const ProcId w{SystemId{0}, 0};
  const ProcId r{SystemId{0}, 1};
  const WriteId wid = WriteId::make(w, 1);
  spans.on_write_issue(100, w, wid, X, 1);
  // A late self-delivery through the apply pipeline does not move the
  // origin's visibility, and an IS-process re-issue does not move the issue.
  spans.on_update_applied(700, w, wid, -1);
  spans.on_write_issue(300, ProcId{SystemId{1}, 2}, wid, X, 1);
  spans.on_update_applied(400, r, wid, -1);

  EXPECT_EQ(spans.apply_time(wid, w), sim::Time{100});
  EXPECT_EQ(spans.visibility(wid, {w}), sim::Duration{0});
  EXPECT_EQ(spans.visibility(wid, {w, r}), sim::Duration{300});
  EXPECT_EQ(spans.worst_visibility({w, r}), sim::Duration{300});
}

TEST(SpanIndex, SkipsWritesWhoseOriginIssueWasNotSeen) {
  obs::SpanIndex spans;
  const ProcId r{SystemId{0}, 1};
  const WriteId unseen = WriteId::make(ProcId{SystemId{1}, 0}, 1);
  spans.on_update_applied(50, r, unseen, -1);
  EXPECT_FALSE(spans.apply_time(unseen, r).has_value());
  EXPECT_FALSE(spans.visibility(unseen, {r}).has_value());
  EXPECT_FALSE(spans.worst_visibility({r}).has_value());  // no write at all
  EXPECT_TRUE(spans.visibilities({r}).empty());
}

TEST(ResponseStats, ComputesMeanAndMax) {
  chk::Recorder rec;
  const ProcId p{SystemId{0}, 0};
  auto w1 = rec.begin(p, false, chk::OpKind::kWrite, X, 1, sim::Time{0});
  rec.end_write(w1, sim::Time{10});
  auto w2 = rec.begin(p, false, chk::OpKind::kWrite, X, 2, sim::Time{20});
  rec.end_write(w2, sim::Time{50});
  auto r1 = rec.begin(p, false, chk::OpKind::kRead, X, 0, sim::Time{60});
  rec.end_read(r1, 2, sim::Time{61});

  auto ws = chk::response_stats(rec.full(), chk::OpKind::kWrite);
  EXPECT_EQ(ws.count, 2u);
  EXPECT_DOUBLE_EQ(ws.mean_ns, 20.0);
  EXPECT_EQ(ws.max_ns, 30);
  auto rs = chk::response_stats(rec.full(), chk::OpKind::kRead);
  EXPECT_EQ(rs.count, 1u);
  EXPECT_EQ(rs.max_ns, 1);
}

TEST(ResponseStats, ExcludesIspOps) {
  chk::Recorder rec;
  const ProcId isp{SystemId{0}, 9};
  auto w = rec.begin(isp, true, chk::OpKind::kWrite, X, 1, sim::Time{0});
  rec.end_write(w, sim::Time{1000});
  auto ws = chk::response_stats(rec.full(), chk::OpKind::kWrite);
  EXPECT_EQ(ws.count, 0u);
}

TEST(Table, AlignsColumns) {
  obs::Table t({"name", "value"});
  t.add_row("n", 4);
  t.add_row("latency", "3l+2d");
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name    | value |"), std::string::npos);
  EXPECT_NE(out.find("| latency | 3l+2d |"), std::string::npos);
}

}  // namespace
}  // namespace cim
