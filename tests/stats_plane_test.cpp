// Federation observability plane (docs/OBSERVABILITY.md "Federation
// snapshot", docs/TRACE_TOOLS.md "merge"): stats routing toward node 0,
// the aggregator's newest-wins fold and atomic snapshot, heartbeat
// RTT/offset estimation under injected faults, offset-table chaining, and
// the cross-node trace merge stitching the same spans a single-process run
// produces.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "helpers.h"
#include "interconnect/topology.h"
#include "mesh/mesh_node.h"
#include "mesh/stats_plane.h"
#include "net/fault_inject.h"
#include "net/wire.h"
#include "obs/span_index.h"
#include "obs/trace_merge.h"
#include "obs/trace_read.h"

namespace cim {
namespace {

using isc::Topology;
using net::wire::StatsFrame;

// Offsets 120 and 130 here, the others in bridge_mesh_test: one process runs
// both files' meshes (cim_tests_bytes_wire).
using test::test_port;

std::string tmp_path(const char* stem) {
  return std::string("/tmp/cim_") + stem + "_" + std::to_string(::getpid()) +
         ".json";
}

// ---- stats_parent ----------------------------------------------------------

TEST(StatsPlane, ParentIsTheTreePathTowardNode0) {
  const Topology btree = isc::make_btree(7);  // 0 -> {1,2}, 1 -> {3,4}, ...
  EXPECT_EQ(mesh::stats_parent(btree, 0), Topology::npos);
  EXPECT_EQ(mesh::stats_parent(btree, 1), 0u);
  EXPECT_EQ(mesh::stats_parent(btree, 2), 0u);
  EXPECT_EQ(mesh::stats_parent(btree, 3), 1u);
  EXPECT_EQ(mesh::stats_parent(btree, 6), 2u);
  const Topology chain = isc::make_chain(4);
  EXPECT_EQ(mesh::stats_parent(chain, 3), 2u);
  const Topology star = isc::make_star(5);
  for (std::size_t i = 1; i < 5; ++i)
    EXPECT_EQ(mesh::stats_parent(star, i), 0u);
}

// ---- FedAggregator ---------------------------------------------------------

StatsFrame frame(std::uint64_t origin, std::uint64_t t_ns,
                 std::int64_t marker) {
  StatsFrame f;
  f.origin = origin;
  f.t_ns = t_ns;
  f.entries.emplace_back("marker", marker);
  return f;
}

TEST(StatsPlane, AggregatorKeepsTheNewestFramePerOrigin) {
  mesh::FedAggregator agg;
  agg.fold(frame(1, 100, 11));
  agg.fold(frame(2, 100, 22));
  agg.fold(frame(1, 200, 12));  // newer: replaces
  agg.fold(frame(2, 50, 21));   // older (reconnect replay): dropped
  EXPECT_EQ(agg.frames_folded(), 4u);
  EXPECT_EQ(agg.origins(), (std::vector<std::uint64_t>{1, 2}));

  const std::string path = tmp_path("fed_agg");
  ASSERT_TRUE(agg.write_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::ostringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  // The snapshot carries the schema-v5 meta header and per-origin gauges —
  // the newest marker per origin, never the superseded one.
  EXPECT_NE(json.find("\"kind\":\"federation\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":5"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fed.nodes\",\"kind\":\"gauge\","
                      "\"value\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("fed.node.1.marker"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fed.node.1.marker\",\"kind\":\"gauge\","
                      "\"value\":12"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"fed.node.2.marker\",\"kind\":\"gauge\","
                      "\"value\":22"),
            std::string::npos)
      << json;
  std::remove(path.c_str());
}

// ---- offset-table chaining -------------------------------------------------

TEST(TraceMerge, OffsetsChainAlongTheTreeFromNode0) {
  // clock(1) = clock(0) + 100; clock(3) = clock(1) + 50 -> rel 150.
  const std::string json =
      "{\"schema\":\"cim.metrics.v1\",\"v\":5,\"metrics\":["
      "{\"name\":\"fed.node.0.peer.1.offset_ns\",\"kind\":\"gauge\","
      "\"value\":100},"
      "{\"name\":\"fed.node.1.peer.3.offset_ns\",\"kind\":\"gauge\","
      "\"value\":50},"
      "{\"name\":\"fed.node.3.peer.1.offset_ns\",\"kind\":\"gauge\","
      "\"value\":-50},"
      "{\"name\":\"fed.node.0.bytes_out\",\"kind\":\"gauge\",\"value\":9}"
      "]}";
  obs::NodeOffsets offsets;
  std::string error;
  ASSERT_TRUE(obs::load_offsets_json(json, offsets, &error)) << error;
  ASSERT_EQ(offsets.rel_node0.size(), 3u);
  EXPECT_EQ(offsets.rel_node0.at(0), 0);
  EXPECT_EQ(offsets.rel_node0.at(1), 100);
  EXPECT_EQ(offsets.rel_node0.at(3), 150);

  obs::NodeOffsets bad;
  EXPECT_FALSE(obs::load_offsets_json("{\"no\":\"metrics\"}", bad, &error));
}

// ---- clock_sample alignment ------------------------------------------------

obs::ParsedTraceEvent synthetic_event(std::int64_t t, const char* name,
                                      std::int64_t steady_ns = 0,
                                      std::uint64_t node = 0) {
  std::ostringstream line;
  line << "{\"v\":4,\"seq\":0,\"t\":" << t << ",\"cat\":\"sim\",\"ev\":\""
       << name << "\",\"f\":{";
  if (std::string(name) == "clock_sample") {
    line << "\"steady_ns\":" << steady_ns << ",\"node\":" << node;
  }
  line << "}}";
  obs::ParsedTraceEvent ev;
  std::string error;
  EXPECT_TRUE(obs::parse_trace_line(line.str(), ev, &error)) << error;
  return ev;
}

TEST(TraceMerge, AlignsVirtualTimePiecewiseLinearlyAndAppliesOffsets) {
  // Virtual 1000..2000 maps onto steady 5000..7000 (slope 2); outside the
  // sampled range the nearest sample extends with slope 1.
  obs::MergeInput in;
  in.label = "n1";
  in.events.push_back(synthetic_event(1000, "clock_sample", 5000, 1));
  in.events.push_back(synthetic_event(2000, "clock_sample", 7000, 1));
  in.events.push_back(synthetic_event(1500, "mid"));
  in.events.push_back(synthetic_event(900, "before"));
  in.events.push_back(synthetic_event(2100, "after"));

  obs::NodeOffsets offsets;
  offsets.rel_node0[1] = 1000;  // clock(1) = clock(0) + 1000
  const obs::MergeResult merged = obs::merge_traces({in}, offsets);
  ASSERT_EQ(merged.events.size(), 5u);
  EXPECT_EQ(merged.aligned_inputs, 1u);
  auto t_of = [&](const std::string& name) -> std::int64_t {
    for (const obs::ParsedTraceEvent& ev : merged.events)
      if (ev.name == name) return ev.t;
    return INT64_MIN;
  };
  EXPECT_EQ(t_of("mid"), 6000 - 1000);
  EXPECT_EQ(t_of("before"), 4900 - 1000);
  EXPECT_EQ(t_of("after"), 7100 - 1000);
  // Sorted by aligned time, seq renumbered.
  for (std::size_t i = 1; i < merged.events.size(); ++i) {
    EXPECT_LE(merged.events[i - 1].t, merged.events[i].t);
    EXPECT_EQ(merged.events[i].seq, i);
  }
}

// ---- span-stitch equivalence -----------------------------------------------

// The merge contract that makes cross-node timelines trustworthy: WriteId is
// globally unique, so splitting one traced run into per-system files and
// merging them back must reconstruct exactly the spans of the unsplit trace.
TEST(TraceMerge, SplitBySystemThenMergeStitchesTheSameSpans) {
  isc::FederationConfig cfg = test::two_systems(2, proto::anbkh_protocol(),
                                                proto::anbkh_protocol(), 11);
  cfg.obs.trace.enabled = true;
  isc::Federation fed(std::move(cfg));
  for (Value v = 1; v <= 6; ++v) fed.system(0).app(0).write(test::X, v);
  fed.system(1).app(0).write(test::Y, 100);
  fed.run();

  std::ostringstream os;
  fed.observability().trace().write_jsonl(os);
  std::istringstream in(os.str());
  std::vector<std::string> errors;
  const std::vector<obs::ParsedTraceEvent> all =
      obs::read_trace_jsonl(in, &errors);
  ASSERT_TRUE(errors.empty());
  ASSERT_FALSE(all.empty());

  // Split by system id (events with no proc affinity go to file 0) — the
  // per-OS-process trace files of a mesh run, in miniature.
  std::vector<obs::MergeInput> inputs(2);
  inputs[0].label = "sys0";
  inputs[1].label = "sys1";
  for (const obs::ParsedTraceEvent& ev : all) {
    ProcId p{};
    const bool has_proc = ev.field_proc("proc", p) ||
                          ev.field_proc("dst", p) || ev.field_proc("src", p);
    inputs[has_proc && p.system.value == 1 ? 1 : 0].events.push_back(ev);
  }
  ASSERT_FALSE(inputs[0].events.empty());
  ASSERT_FALSE(inputs[1].events.empty());

  const obs::MergeResult merged =
      obs::merge_traces(inputs, obs::NodeOffsets{});
  // No clock_samples in an in-process run: both halves stay on the shared
  // virtual clock and the merge warns instead of aligning.
  EXPECT_EQ(merged.aligned_inputs, 0u);
  EXPECT_EQ(merged.events.size(), all.size());

  obs::SpanIndex split_spans;
  split_spans.index(merged.events);
  obs::SpanIndex whole_spans;
  whole_spans.index(all);
  ASSERT_EQ(split_spans.size(), whole_spans.size());
  std::size_t cross_system_hops = 0;
  for (WriteId wid : whole_spans.wids()) {
    const obs::WriteSpan* a = whole_spans.span(wid);
    const obs::WriteSpan* b = split_spans.span(wid);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->applies.size(), b->applies.size());
    EXPECT_EQ(a->pair_outs.size(), b->pair_outs.size());
    EXPECT_EQ(a->pair_ins.size(), b->pair_ins.size());
    EXPECT_EQ(a->issue_t, b->issue_t);
    for (const obs::WriteSpan::PairIn& p : b->pair_ins)
      if (p.proc.system.value != wid.origin().system.value)
        ++cross_system_hops;
  }
  // At least one write's span crosses the system boundary in the merged
  // view — the stitch the mesh acceptance run asserts end-to-end.
  EXPECT_GT(cross_system_hops, 0u);

  // The merged stream re-serializes into valid trace JSONL.
  std::ostringstream round;
  obs::write_trace_jsonl(round, merged.events);
  std::istringstream round_in(round.str());
  errors.clear();
  const auto reparsed = obs::read_trace_jsonl(round_in, &errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  EXPECT_EQ(reparsed.size(), merged.events.size());
}

// ---- heartbeat RTT / offset over real sockets ------------------------------

// Spin until `pred`, failing the test (and returning false) after `budget`.
template <typename Pred>
bool spin_until(Pred pred, std::chrono::milliseconds budget =
                               std::chrono::milliseconds(10'000)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "spin_until timed out";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(MeshStats, HeartbeatRttWidensUnderStallButOffsetStaysBounded) {
  // 2-chain, tiny workload, fast heartbeats, and node 1's writes stalled
  // from the moment the sessions are up. The stall holds the run open (node
  // 1's pairs and its done can't flush), while node 1's tick keeps stamping
  // echo heartbeats (t3) that sit in the stalled queue — when the flush
  // burst finally lands, node 0 computes RTT samples inflated by the queue
  // wait. The NTP bound must survive the abuse: offset is taken at the
  // minimum-RTT exchange and the true offset is 0 (both processes share one
  // CLOCK_MONOTONIC), so |offset| <= best_rtt/2 always — even when every
  // observed sample is stall-inflated.
  net::FaultHooks hooks;
  std::vector<std::unique_ptr<mesh::MeshNode>> nodes;
  for (std::size_t i = 0; i < 2; ++i) {
    mesh::MeshConfig cfg;
    cfg.node_id = i;
    cfg.topo = isc::make_chain(2);
    cfg.base_port = test_port(120);
    cfg.procs = 2;
    cfg.ops = 2;  // keep data pressure off the heartbeat queue slot
    cfg.seed = 5;
    cfg.join_timeout_ms = 20'000;
    cfg.timing.hb_interval_ms = 20;
    cfg.timing.liveness_timeout_ms = 5000;  // the stall must degrade, not kill
    cfg.faults = i == 1 ? &hooks : nullptr;
    nodes.push_back(std::make_unique<mesh::MeshNode>(std::move(cfg)));
  }
  hooks.stall_writes.store(true);  // before run(): no pre-stall drain race
  std::vector<mesh::MeshResult> results(2);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      if (nodes[i]->join()) results[i] = nodes[i]->run();
    });
  }
  while (!nodes[0]->sessions_ready() || !nodes[1]->sessions_ready())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // ~15 heartbeat ticks on each side while node 1's queue is dammed.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  hooks.stall_writes.store(false);
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < 2; ++i)
    ASSERT_TRUE(results[i].ok) << "node " << i << ": " << nodes[i]->error();

  // Node 0 (the unstalled side) received node 1's queued echoes in the
  // post-stall burst: at least one exchange, and the early-stamped ones
  // carry the queue wait as RTT.
  mesh::LinkSession& s0 = nodes[0]->session(0);
  ASSERT_GE(s0.rtt_count(), 1u);
  std::int64_t max_rtt = 0;
  for (std::int64_t sample : s0.rtt_samples())
    max_rtt = std::max(max_rtt, sample);
  EXPECT_GE(max_rtt, 100'000'000) << "stall never widened the RTT";

  for (std::size_t i = 0; i < 2; ++i) {
    mesh::LinkSession& s = nodes[i]->session(0);
    if (s.rtt_count() == 0) continue;  // node 1 may drain before a sample
    const std::int64_t best = s.best_rtt_ns();
    ASSERT_GE(best, 0) << "node " << i;
    for (std::int64_t sample : s.rtt_samples()) EXPECT_GE(sample, best);
    // The NTP error bound, checkable because the true offset is 0 here:
    // the estimate kept at the minimum-RTT exchange is off by at most
    // rtt/2 (plus scheduling slack).
    EXPECT_LE(std::abs(s.clock_offset_ns()), best / 2 + 2'000'000)
        << "node " << i;
  }
}

// ---- federation-wide snapshot over real sockets ----------------------------

TEST(MeshStats, Node0SnapshotCoversEveryNodeOfABtree4) {
  const std::string fed_path = tmp_path("fed_snapshot");
  std::remove(fed_path.c_str());
  std::vector<std::unique_ptr<mesh::MeshNode>> nodes;
  for (std::size_t i = 0; i < 4; ++i) {
    mesh::MeshConfig cfg;
    cfg.node_id = i;
    cfg.topo = isc::make_btree(4);
    cfg.base_port = test_port(130);
    cfg.procs = 2;
    cfg.ops = 30;
    cfg.seed = 9;
    cfg.join_timeout_ms = 20'000;
    cfg.stats_interval_ms = 25;
    if (i == 0) cfg.fed_metrics_path = fed_path;
    nodes.push_back(std::make_unique<mesh::MeshNode>(std::move(cfg)));
  }
  std::vector<mesh::MeshResult> results(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      if (nodes[i]->join()) results[i] = nodes[i]->run();
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_TRUE(results[i].ok) << "node " << i << ": " << nodes[i]->error();

  std::ifstream in(fed_path);
  ASSERT_TRUE(in.is_open()) << fed_path;
  std::ostringstream text;
  text << in.rdbuf();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::parse_json(text.str(), doc, &error)) << error;
  const obs::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  std::set<std::string> names;
  for (const obs::JsonValue& m : metrics->items) {
    const obs::JsonValue* name = m.find("name");
    if (name != nullptr) names.insert(name->s);
  }
  // One frame from every node reached node 0 up the tree, and each carries
  // the per-peer link health keys cim_top renders.
  for (int i = 0; i < 4; ++i) {
    const std::string p = "fed.node." + std::to_string(i) + ".";
    EXPECT_TRUE(names.count(p + "t_ns")) << p;
    EXPECT_TRUE(names.count(p + "generation")) << p;
    EXPECT_TRUE(names.count(p + "bytes_out")) << p;
  }
  EXPECT_TRUE(names.count("fed.node.3.peer.1.pairs_delivered"));
  EXPECT_TRUE(names.count("fed.node.0.peer.1.rtt_count"));
  EXPECT_TRUE(names.count("fed.node.0.peer.2.offset_ns"));

  // The offsets loader accepts the real snapshot and reaches every node.
  obs::NodeOffsets offsets;
  ASSERT_TRUE(obs::load_offsets_json(text.str(), offsets, &error)) << error;
  for (std::uint64_t n = 0; n < 4; ++n)
    EXPECT_TRUE(offsets.rel_node0.count(n)) << n;
  std::remove(fed_path.c_str());
}

}  // namespace
}  // namespace cim
