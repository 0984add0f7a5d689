// Mesh transport throughput (docs/BRIDGE.md): the epoll/writev TCP path that
// carries pairs between the OS processes of an n-system federation. One
// in-process "node" per mesh position — its own EpollLoop, exactly like one
// cim_bridge process — connected by real stream sockets; node 0 floods
// PairMsg frames down the tree from its loop, as loop work the way a
// MeshNode runs its engine, and every inner node forwards to its other
// links (the IS-process's split horizon, minus the memory system). Reported
// per mesh shape: end-to-end delivered msgs/sec and syscalls/msg across the
// whole mesh — the coalescing win is exactly the gap between syscalls_per_msg
// and 2.0 (one read + one write per frame, what the blocking transport paid).
//
// The fault_sweep row prices the crash-tolerance layer (docs/FAULTS.md): a
// 2-node session mesh takes repeated injected socket kills; reported are the
// median fault-to-rejoin latency (reconnect_ms, gated lower-is-better) and
// the median catch-up delivery rate after each rejoin (informational: the
// burst size tracks what queued during the outage, so compare_benches.py
// exempts it from gating). Blessed baseline: bench/baseline/BENCH_bridge.json.
//
// The obs_overhead row prices the stats plane (docs/BRIDGE.md "Stats
// aggregation"): the same full 2-chain MeshNode mesh run with the stats
// plane off and again at the deployed default cadence (250 ms, what
// --fed-metrics implies; node 0 folds the federation snapshot to disk every
// tick), reporting both delivered-pair rates and the relative cost in
// percent. The contract is that the plane stays under 2% of msgs/sec; both
// rates and the delta are informational in compare_benches.py — a two-run
// difference of noisy absolute throughputs is too jittery to gate, the row
// exists so the overhead stays *visible*.
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/check.h"
#include "interconnect/pair_msg.h"
#include "interconnect/topology.h"
#include "mesh/mesh_node.h"
#include "net/epoll_loop.h"
#include "net/fault_inject.h"
#include "net/tcp_link.h"
#include "net/wire.h"
#include "stats/table.h"

namespace {

using namespace cim;

constexpr std::size_t kMessages = 100'000;  // flooded from node 0
// Node 0's flood: messages per loop iteration, and the send-queue depth on
// any link at which it pauses (in a node, the session journal's bound plays
// this role).
constexpr std::size_t kFloodBatch = 256;
constexpr std::size_t kFloodBacklog = 512;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

net::MessagePtr make_pair_msg(std::uint32_t seq) {
  auto msg = std::make_unique<isc::PairMsg>();
  msg->var = VarId{static_cast<std::uint16_t>(seq % 8)};
  msg->value = Value{seq};
  msg->write_id = WriteId::make(ProcId{SystemId{0}, 0}, seq);
  return msg;
}

// One edge endpoint: the byte pipe plus the seq stamping a session would do
// (no journal, no acks — this row prices the transport alone). Each link is
// written by its node's loop thread only.
struct Link {
  std::unique_ptr<net::TcpLinkTransport> pipe;
  std::uint64_t next_seq = 0;
  std::vector<std::uint8_t> buf;

  void send(net::TransportFrame& frame) {
    frame.seq = next_seq++;
    buf.clear();
    net::wire::encode(frame, buf);
    pipe->send_bytes(buf.data(), buf.size());
  }
};

// One mesh position: an epoll loop plus one pipe per incident edge — the
// exact I/O topology of a cim_bridge process, minus the memory system.
struct Node {
  net::EpollLoop loop;
  std::vector<Link> links;
  std::atomic<std::uint64_t> delivered{0};
};

struct ShapeResult {
  double msgs_per_sec = 0;
  double syscalls_per_msg = 0;
  double coalesced_frac = 0;
};

ShapeResult run_shape(const isc::Topology& topo) {
  const std::size_t n = topo.nodes;
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(std::make_unique<Node>());

  // Connect every edge with a stream socketpair and hang one transport off
  // each endpoint's loop. links[i][k] talks to topo.neighbors(i)[k].
  std::vector<std::vector<std::size_t>> nbrs(n);
  for (std::size_t i = 0; i < n; ++i) {
    nbrs[i] = topo.neighbors(i);
    nodes[i]->links.resize(nbrs[i].size());
  }
  for (const isc::TopologyEdge& e : topo.edges) {
    int fds[2];
    CIM_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    auto slot = [&](std::size_t node, std::size_t peer) -> std::size_t {
      for (std::size_t k = 0; k < nbrs[node].size(); ++k)
        if (nbrs[node][k] == peer) return k;
      CIM_CHECK(false);
      return 0;
    };
    nodes[e.a]->links[slot(e.a, e.b)].pipe =
        std::make_unique<net::TcpLinkTransport>(fds[0], nodes[e.a]->loop);
    nodes[e.b]->links[slot(e.b, e.a)].pipe =
        std::make_unique<net::TcpLinkTransport>(fds[1], nodes[e.b]->loop);
  }

  for (std::size_t i = 0; i < n; ++i) {
    Node* node = nodes[i].get();
    for (std::size_t k = 0; k < node->links.size(); ++k) {
      node->links[k].pipe->start_frames(
          [node, k](std::unique_ptr<net::TransportFrame> frame) {
            node->delivered.fetch_add(1, std::memory_order_relaxed);
            // Split horizon: forward to every other link.
            for (std::size_t other = 0; other < node->links.size(); ++other) {
              if (other != k) node->links[other].send(*frame);
            }
          });
    }
  }

  // Node 0 floods as its loop's work, one batch per iteration; the flushes
  // the batch armed run at the end of that iteration. A batch stops at a
  // link whose queue is at the bound. If the queue is still there when the
  // next batch starts, the flush met a full kernel buffer: the loop sleeps
  // until the EPOLLOUT edge that resumes it.
  std::size_t flooded = 0;
  net::TransportFrame frame;
  Node& origin = *nodes[0];
  origin.loop.set_work([&] {
    for (std::size_t b = 0; b < kFloodBatch && flooded < kMessages; ++b) {
      for (const Link& link : origin.links)
        if (link.pipe->backlog() >= kFloodBacklog) return b > 0;
      frame.payload = make_pair_msg(static_cast<std::uint32_t>(flooded++));
      for (Link& link : origin.links) link.send(frame);
    }
    return flooded < kMessages;
  });

  // Each node's loop runs on a thread of its own, as in its own process.
  // Wait for every message to reach every other node exactly once.
  const std::uint64_t expected = kMessages * (n - 1);
  const double t0 = now_s();
  std::vector<std::thread> runners;
  for (auto& node : nodes)
    runners.emplace_back([loop = &node->loop] { loop->run(); });
  std::uint64_t total = 0;
  while (total < expected) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    total = 0;
    for (const auto& node : nodes) total += node->delivered.load();
  }
  const double elapsed = now_s() - t0;
  for (auto& node : nodes) node->loop.stop();
  for (std::thread& runner : runners) runner.join();

  // The loops have returned: the transports' counters are settled.
  std::uint64_t syscalls = 0, frames = 0, coalesced = 0;
  for (const auto& node : nodes) {
    for (const Link& link : node->links) {
      syscalls += link.pipe->syscalls_read() + link.pipe->syscalls_write();
      frames += link.pipe->frames_sent();
      coalesced += link.pipe->frames_coalesced();
    }
  }

  ShapeResult res;
  res.msgs_per_sec = static_cast<double>(total) / elapsed;
  res.syscalls_per_msg =
      static_cast<double>(syscalls) / static_cast<double>(frames);
  res.coalesced_frac =
      static_cast<double>(coalesced) / static_cast<double>(frames);
  return res;
}

struct FaultSweepResult {
  double reconnect_ms = 0;        // median fault-to-rejoin latency
  double post_msgs_per_sec = 0;   // median catch-up rate after each rejoin
  std::uint64_t resumes = 0;
};

// A 2-node LinkSession mesh over localhost TCP (the bridge_mesh fixture, as
// a bench): node 1's transport is killed kCycles times via an injected write
// failure; each kill must be detected by the heartbeat tick, backed off, and
// rejoined with replay. The clock runs from the injection to the session
// counting the resume.
FaultSweepResult run_fault_sweep(std::uint16_t base_port) {
  constexpr int kCycles = 5;
  net::FaultHooks hooks;
  std::vector<std::unique_ptr<mesh::MeshNode>> nodes;
  for (std::size_t i = 0; i < 2; ++i) {
    mesh::MeshConfig cfg;
    cfg.node_id = i;
    cfg.topo = isc::make_chain(2);
    cfg.base_port = base_port;
    cfg.procs = 4;
    // Big enough that the stream is still in full flow through the fault
    // cycles AND the post-recovery measurement window — the rate must price
    // a live pipeline, not the tail of a drain.
    cfg.ops = 12'000;
    cfg.seed = 9;
    cfg.join_timeout_ms = 20'000;
    cfg.hb_interval_ms = 10;
    cfg.liveness_timeout_ms = 100;
    // The deterministic first-dial backoff dominates the reconnect latency,
    // keeping the metric stable enough to gate (jitter is splitmix-seeded,
    // identical across runs; only scheduling noise remains).
    cfg.backoff_initial_ms = 20;
    cfg.backoff_max_ms = 40;
    cfg.reconnect_attempts = 400;
    if (i == 1) cfg.faults = &hooks;
    nodes.push_back(std::make_unique<mesh::MeshNode>(std::move(cfg)));
  }
  std::vector<std::thread> threads;
  std::vector<mesh::MeshResult> results(2);
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      if (nodes[i]->join()) results[i] = nodes[i]->run();
    });
  }
  while (!nodes[0]->sessions_ready() || !nodes[1]->sessions_ready())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  auto spin = [](auto pred, double budget_s) {
    const double deadline = now_s() + budget_s;
    while (!pred() && now_s() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    return pred();
  };

  mesh::LinkSession& s1 = nodes[1]->session(0);
  const auto delivered_total = [&] {
    return nodes[0]->session(0).data_delivered() +
           nodes[1]->session(0).data_delivered();
  };
  std::vector<double> latencies;
  std::vector<double> rates;
  for (int c = 0; c < kCycles; ++c) {
    const std::uint64_t before = s1.resumes();
    // A sticky write failure: the next heartbeat flush kills the socket.
    // The clock starts when the session *observes* the death — that leaves
    // backoff + redial + rejoin in the sample and keeps the heartbeat
    // detection jitter (uniform over one tick) out of it.
    hooks.fail_writes_after.store(0);
    if (!spin([&] { return s1.down(); }, 2.0)) break;
    const double t_down = now_s();
    hooks.fail_writes_after.store(-1);
    if (!spin([&] { return s1.resumes() > before; }, 2.0)) break;
    latencies.push_back((now_s() - t_down) * 1e3);
    // Post-recovery (catch-up) throughput, count-based and right after the
    // rejoin while the stream is provably hot: time the next 2000
    // deliveries — the replay burst plus the resuming pipeline.
    const std::uint64_t mark = delivered_total();
    const double t0 = now_s();
    if (spin([&] { return delivered_total() - mark >= 2000; }, 2.0)) {
      const double elapsed = now_s() - t0;
      if (elapsed > 0)
        rates.push_back(static_cast<double>(delivered_total() - mark) /
                        elapsed);
    }
    spin([&] { return !s1.down(); }, 2.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  for (auto& t : threads) t.join();
  CIM_CHECK(results[0].ok && results[1].ok);

  FaultSweepResult res;
  res.resumes = s1.resumes();
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    res.reconnect_ms = latencies[latencies.size() / 2];
  }
  if (!rates.empty()) {
    std::sort(rates.begin(), rates.end());
    res.post_msgs_per_sec = rates[rates.size() / 2];
  }
  return res;
}

struct ObsMeshResult {
  double msgs_per_sec = 0;   // delivered pairs / wall time of run()
  double cpu_us_per_msg = 0; // process CPU (utime+stime) / delivered pairs
};

double cpu_s() {
  struct rusage ru;
  CIM_CHECK(::getrusage(RUSAGE_SELF, &ru) == 0);
  auto tv = [](const struct timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// A full 2-chain MeshNode mesh (workload, sessions, heartbeats — everything
// a cim_bridge process runs) with the stats plane at the given cadence;
// 0 = off. Covers run() end to end, so the StatsFrame encode/forward/fold
// cost and node 0's snapshot rewrites are all priced against the same drain.
// The wall-clock rate is reported for the record, but the overhead verdict
// uses CPU per delivered pair: on a loaded host the extra stats-tick wakeups
// *shift* wall time (they can even shorten convergecast idle waits), while
// the cycles the plane burns are exactly what getrusage counts.
ObsMeshResult run_obs_mesh(std::uint16_t base_port, int stats_interval_ms) {
  std::vector<std::unique_ptr<mesh::MeshNode>> nodes;
  for (std::size_t i = 0; i < 2; ++i) {
    mesh::MeshConfig cfg;
    cfg.node_id = i;
    cfg.topo = isc::make_chain(2);
    cfg.base_port = base_port;
    cfg.procs = 4;
    cfg.ops = 4'000;
    cfg.seed = 17;
    cfg.join_timeout_ms = 20'000;
    cfg.stats_interval_ms = stats_interval_ms;
    if (i == 0 && stats_interval_ms > 0)
      cfg.fed_metrics_path = "/tmp/cim_bench_fed_" +
                             std::to_string(::getpid()) + ".json";
    nodes.push_back(std::make_unique<mesh::MeshNode>(std::move(cfg)));
  }
  std::vector<std::thread> threads;
  std::vector<mesh::MeshResult> results(2);
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      if (nodes[i]->join()) results[i] = nodes[i]->run();
    });
  }
  while (!nodes[0]->sessions_ready() || !nodes[1]->sessions_ready())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const double t0 = now_s();
  const double c0 = cpu_s();
  for (auto& t : threads) t.join();
  const double elapsed = now_s() - t0;
  const double cpu = cpu_s() - c0;
  CIM_CHECK(results[0].ok && results[1].ok);
  const double delivered =
      static_cast<double>(nodes[0]->session(0).data_delivered() +
                          nodes[1]->session(0).data_delivered());
  ObsMeshResult res;
  res.msgs_per_sec = delivered / elapsed;
  res.cpu_us_per_msg = cpu * 1e6 / delivered;
  return res;
}

}  // namespace

int main() {
  bench::JsonReport report("bridge");
  report.meta("messages", std::uint64_t{kMessages});
  stats::Table table(
      {"mesh", "Mmsg/s", "syscalls/msg", "coalesced"});

  const std::pair<const char*, isc::Topology> shapes[] = {
      {"chain_2", isc::make_chain(2)},
      {"btree_4", isc::make_btree(4)},
      {"btree_8", isc::make_btree(8)},
  };
  for (const auto& [label, topo] : shapes) {
    const ShapeResult res = run_shape(topo);
    report.row(label)
        .field("msgs_per_sec", res.msgs_per_sec)
        .field("syscalls_per_msg", res.syscalls_per_msg)
        .field("coalesced_frac", res.coalesced_frac);
    char rate[32], sys[32], coal[32];
    std::snprintf(rate, sizeof(rate), "%.2f", res.msgs_per_sec / 1e6);
    std::snprintf(sys, sizeof(sys), "%.3f", res.syscalls_per_msg);
    std::snprintf(coal, sizeof(coal), "%.2f", res.coalesced_frac);
    table.add_row(label, rate, sys, coal);
  }
  table.print();

  const FaultSweepResult fs = run_fault_sweep(9915);
  report.row("fault_sweep")
      .field("reconnect_ms", fs.reconnect_ms)
      .field("post_recovery_msgs_per_sec", fs.post_msgs_per_sec)
      .field("resumes", static_cast<double>(fs.resumes));
  std::printf("fault_sweep: reconnect %.1f ms (median of %llu resumes), "
              "post-recovery %.0f msgs/s\n",
              fs.reconnect_ms, static_cast<unsigned long long>(fs.resumes),
              fs.post_msgs_per_sec);

  // The per-tick cost is far too small to resolve at the deployed 250 ms
  // cadence (a 3 s run holds ~12 ticks — fractions of a percent, under the
  // host noise floor), so the measurement amplifies it: run at a 5 ms
  // cadence (50x the default tick rate), take the cheapest of two runs per
  // configuration (least CPU per message — comparing minima keeps scheduler
  // noise out of the delta), and scale the measured delta back down by the
  // cadence ratio. Tick work is constant per tick (sample + encode +
  // forward + fold + snapshot rewrite), so the scaling is linear.
  constexpr int kAmplifiedCadenceMs = 5;
  constexpr double kDefaultCadenceMs = 250.0;  // what --fed-metrics implies
  const ObsMeshResult off_a = run_obs_mesh(9917, 0);
  const ObsMeshResult off_b = run_obs_mesh(9917, 0);
  const ObsMeshResult on_a = run_obs_mesh(9919, kAmplifiedCadenceMs);
  const ObsMeshResult on_b = run_obs_mesh(9919, kAmplifiedCadenceMs);
  const ObsMeshResult& off =
      off_a.cpu_us_per_msg <= off_b.cpu_us_per_msg ? off_a : off_b;
  const ObsMeshResult& on =
      on_a.cpu_us_per_msg <= on_b.cpu_us_per_msg ? on_a : on_b;
  const double amplified_pct =
      (on.cpu_us_per_msg - off.cpu_us_per_msg) / off.cpu_us_per_msg * 100.0;
  const double overhead_pct =
      amplified_pct * kAmplifiedCadenceMs / kDefaultCadenceMs;
  report.row("obs_overhead")
      .field("stats_off_msgs_per_sec", off.msgs_per_sec)
      .field("stats_on_msgs_per_sec", on.msgs_per_sec)
      .field("stats_off_cpu_us_per_msg", off.cpu_us_per_msg)
      .field("stats_on_cpu_us_per_msg", on.cpu_us_per_msg)
      .field("amplified_overhead_pct", amplified_pct)
      .field("overhead_pct", overhead_pct);
  std::printf("obs_overhead: %.1f us/msg CPU stats off, %.1f at a 5 ms "
              "cadence (50x default) -> %.2f%% amplified, %.3f%% at the "
              "default 250 ms cadence\n",
              off.cpu_us_per_msg, on.cpu_us_per_msg, amplified_pct,
              overhead_pct);
  return 0;
}
