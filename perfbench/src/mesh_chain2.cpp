// mesh_chain2: the deployed path. Two mesh::MeshNodes in this process,
// joined over loopback TCP as a 2-node chain, each configured as cim_bridge
// defaults (4 app procs, ANBKH, IS-protocol, the always-on OnlineMonitor,
// link sessions with heartbeats). Closed loop in virtual time: each app
// process issues its next op when the previous one completes.
//
// One repetition = construct + join + run both nodes. The measured window
// runs from run() start to the last pair delivered, as seen by a sleeping
// 1 ms poller of LinkSession::data_delivered(); the termination wait after
// it is reported separately (mesh.drain_s). Every repetition is gated:
// both nodes ok, per-edge data_sent equals the peer's data_delivered, no
// monitor violations, and the merged α^T history checks at kCM (untimed).
//
// Traced runs add a 1 ms sampler of each session's counters, and three
// in-simulator mirrors of the same logical work (2 systems x 4 procs, one
// link; monitor off, monitor on, monitor on with a wire-codec round trip per
// pair), which split the mesh's CPU per op into layers.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "checker/causal_checker.h"
#include "harness.h"
#include "interconnect/federation.h"
#include "interconnect/topology.h"
#include "mesh/mesh_node.h"
#include "protocols/anbkh.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace cim;

constexpr std::uint16_t kProcs = 4;
constexpr std::size_t kJournalMaxFrames = 4096;  // SessionConfig default
constexpr double kNominalRepS = 2.5;

/// A loopback port nobody listens on right now: bind port 0, read what the
/// kernel chose, release it. Node 0 listens on it a few ms later.
std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

double trace_events(const obs::MetricsSnapshot& s) {
  double n = 0;
  for (const auto& e : s.entries)
    if (e.name.rfind("trace.events.", 0) == 0)
      n += static_cast<double>(e.value);
  return n;
}

/// One node's thread: join(), then run(). Written by that thread only; read
/// by the main thread after `finished` (or after the join).
struct NodeRun {
  std::unique_ptr<mesh::MeshNode> node;
  mesh::MeshResult res;
  std::string error;
  bool joined = false;
  std::int64_t join_end_ns = 0;
  std::int64_t run_start_ns = 0;
  std::int64_t run_end_ns = 0;
  Usage run_start_usage;
  std::atomic<bool> finished{false};

  void drive() {
    try {
      joined = node->join();
      join_end_ns = now_ns();
      if (joined) {
        run_start_ns = now_ns();
        run_start_usage = Usage::process();
        res = node->run();
        run_end_ns = now_ns();
      }
      if (!joined || !res.ok) error = node->error();
    } catch (const std::exception& e) {
      error = e.what();
    }
    finished.store(true, std::memory_order_release);
  }
};

/// Sampler tallies: samples taken, and per-session samples with the journal
/// at its bound; in total and as of the last delivery (the window's end).
struct Sampled {
  std::uint64_t samples = 0;
  std::uint64_t journal_full = 0;
  std::uint64_t window_samples = 0;
  std::uint64_t window_full = 0;
};

/// Merged α^T of both nodes, checked at kCM.
bool merged_history_causal(mesh::MeshNode& a, mesh::MeshNode& b,
                           std::string& why) {
  chk::HistoryBuilder builder;
  for (mesh::MeshNode* n : {&a, &b}) {
    const chk::History h = n->federation().federation_history();
    for (std::size_t i = 0; i < h.size(); ++i) builder.add(h.op(i));
  }
  const chk::History merged = builder.build();
  const chk::CheckResult r =
      chk::CausalChecker{}.check(merged, chk::Level::kCM);
  if (!r.ok()) why = std::string(chk::to_string(r.pattern)) + ": " + r.detail;
  return r.ok();
}

/// One repetition: counts its ops in `result` and, when it completed, adds
/// its samples to `out` and returns its CPU µs per op.
std::optional<double> mesh_rep(std::uint64_t rep_seed, std::size_t ops,
                               bool sample, SpanLog& spans, Samples& out,
                               Result& result) {
  const std::uint64_t attempted = 2ull * kProcs * ops;
  result.attempted += attempted;
  Scoped rep_span(spans, "mesh.rep");

  const std::uint16_t base_port = free_port();
  NodeRun nodes[2];
  const std::int64_t ctor0 = now_ns();
  {
    Scoped s(spans, "mesh::MeshNode::MeshNode", rep_span.id());
    for (std::size_t i = 0; i < 2; ++i) {
      mesh::MeshConfig cfg;
      cfg.node_id = i;
      cfg.topo = isc::make_chain(2);
      cfg.base_port = base_port;
      cfg.procs = kProcs;
      cfg.ops = ops;
      cfg.seed = rep_seed;
      nodes[i].node = std::make_unique<mesh::MeshNode>(std::move(cfg));
    }
  }
  const double ctor_s = seconds_since(ctor0);

  // Node 0 listens before node 1 dials: a dial that beats the listener
  // sleeps 100 ms in tcp_connect's retry and would bimodalize join time.
  std::thread t0([&] { nodes[0].drive(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::int64_t join0 = now_ns();
  const int join_span = spans.begin("mesh::MeshNode::join+run", rep_span.id());
  std::thread t1([&] { nodes[1].drive(); });

  // The poller: sleeps 1 ms, watches delivery progress.
  bool ready = false;
  std::int64_t ready_ns = 0;
  std::uint64_t delivered = 0;
  std::int64_t last_ns = 0;
  Usage last_usage;
  Sampled smp;
  while (!(nodes[0].finished.load(std::memory_order_acquire) &&
           nodes[1].finished.load(std::memory_order_acquire))) {
    // Fine-grained until both nodes are set up (setup_s is a few ms), then
    // the 1 ms cadence the window end is resolved to.
    if (ready) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    else std::this_thread::sleep_for(std::chrono::microseconds(20));
    if (!ready) {
      if (!nodes[0].node->sessions_ready() || !nodes[1].node->sessions_ready())
        continue;
      ready = true;
      ready_ns = now_ns();
      last_ns = ready_ns;
      last_usage = Usage::process();
    }
    mesh::LinkSession& s0 = nodes[0].node->session(0);
    mesh::LinkSession& s1 = nodes[1].node->session(0);
    if (sample) {
      ++smp.samples;
      const std::int64_t t = now_ns();
      const char* names[2][4] = {
          {"node0.data_sent", "node0.data_delivered", "node0.backlog",
           "node0.hb_miss"},
          {"node1.data_sent", "node1.data_delivered", "node1.backlog",
           "node1.hb_miss"}};
      int i = 0;
      for (mesh::LinkSession* s : {&s0, &s1}) {
        const std::size_t backlog = s->backlog();
        if (backlog >= kJournalMaxFrames) ++smp.journal_full;
        spans.counter(names[i][0], t, static_cast<double>(s->data_sent()));
        spans.counter(names[i][1], t,
                      static_cast<double>(s->data_delivered()));
        spans.counter(names[i][2], t, static_cast<double>(backlog));
        spans.counter(names[i][3], t, static_cast<double>(s->hb_miss()));
        ++i;
      }
    }
    const std::uint64_t d = s0.data_delivered() + s1.data_delivered();
    if (d > delivered) {
      delivered = d;
      last_ns = now_ns();
      last_usage = Usage::process();
      smp.window_samples = smp.samples;
      smp.window_full = smp.journal_full;
    }
  }
  t0.join();
  t1.join();
  spans.end(join_span);

  const bool ok = ready && nodes[0].joined && nodes[1].joined &&
                  nodes[0].error.empty() && nodes[1].error.empty() &&
                  nodes[0].res.ok && nodes[1].res.ok;
  if (!ok) {
    result.failed += attempted;
    for (const NodeRun& n : nodes)
      if (!n.error.empty())
        std::cerr << "mesh_chain2 rep failed: " << n.error << "\n";
    return std::nullopt;
  }
  mesh::MeshNode& n0 = *nodes[0].node;
  mesh::MeshNode& n1 = *nodes[1].node;
  const std::uint64_t done = nodes[0].res.ops_done + nodes[1].res.ops_done;
  result.failed += attempted - std::min(attempted, done);

  // ---- correctness gate (untimed) ----------------------------------------
  mesh::LinkSession& s0 = n0.session(0);
  mesh::LinkSession& s1 = n1.session(0);
  if (s0.data_sent() != s1.data_delivered() ||
      s1.data_sent() != s0.data_delivered())
    result.gate_failed("mesh_chain2: data_sent != peer data_delivered");
  if (nodes[0].res.violations + nodes[1].res.violations != 0)
    result.gate_failed("mesh_chain2: online monitor violations");
  {
    Scoped s(spans, "chk::CausalChecker::check(merged,kCM)", rep_span.id());
    std::string why;
    if (!merged_history_causal(n0, n1, why))
      result.gate_failed("mesh_chain2: merged history not causal: " + why);
  }

  // ---- metrics --------------------------------------------------------------
  const std::int64_t run_start =
      std::min(nodes[0].run_start_ns, nodes[1].run_start_ns);
  const Usage& start_usage = nodes[0].run_start_ns <= nodes[1].run_start_ns
                                 ? nodes[0].run_start_usage
                                 : nodes[1].run_start_usage;
  const double window_s = static_cast<double>(last_ns - run_start) / 1e9;
  const Usage used = last_usage - start_usage;
  const double pairs = static_cast<double>(delivered);
  const double opsd = static_cast<double>(done);
  out.add("setup_s", ctor_s + static_cast<double>(ready_ns - join0) / 1e9);
  out.add("ops_per_s", opsd / window_s);
  out.add("cpu_us_per_op", used.cpu_us / opsd);
  out.add("mesh.join_s",
          static_cast<double>(std::max(nodes[0].join_end_ns,
                                       nodes[1].join_end_ns) - join0) / 1e9);
  out.add("mesh.drain_s",
          static_cast<double>(std::max(nodes[0].run_end_ns,
                                       nodes[1].run_end_ns) - last_ns) / 1e9);
  out.add("runtime.vcs_per_pair", used.vcs / pairs);
  out.add("runtime.ivcs_per_pair", used.ivcs / pairs);

  double syscalls = 0, coalesced = 0, frames = 0, epoll_waits = 0, wakeups = 0,
         bytes = 0, stalls = 0, hb_miss = 0, resumes = 0, dup_drops = 0,
         trace_ev = 0, trace_drop = 0, events = 0, fabric_msgs = 0,
         isc_pairs = 0, writes = 0;
  for (mesh::MeshNode* n : {&n0, &n1}) {
    mesh::LinkSession& s = n->session(0);
    syscalls += static_cast<double>(s.syscalls_read() + s.syscalls_write());
    coalesced += static_cast<double>(s.frames_coalesced());
    frames += static_cast<double>(s.data_sent());
    bytes += static_cast<double>(s.wire_bytes_out());
    stalls += static_cast<double>(s.queue_full_stalls());
    hb_miss += static_cast<double>(s.hb_miss());
    resumes += static_cast<double>(s.resumes());
    dup_drops += static_cast<double>(s.dup_drops());
    isc::Federation& fed = n->federation();
    const obs::MetricsSnapshot snap = fed.metrics_snapshot();
    epoll_waits += snapshot_value(snap, "net.mesh.epoll_waits");
    wakeups += snapshot_value(snap, "net.mesh.wakeups");
    trace_ev += trace_events(snap);
    trace_drop += snapshot_value(snap, "trace.dropped");
    isc_pairs += snapshot_value(snap, "isc.pairs_sent");
    // mcs.writes also counts the IS-process's local write of every pair it
    // receives; app writes are the rest.
    writes += snapshot_value(snap, "mcs.writes") -
              snapshot_value(snap, "isc.pairs_received");
    events += static_cast<double>(fed.simulator().events_fired());
    fabric_msgs += static_cast<double>(fed.fabric().total_messages());
  }
  out.add("net.syscalls_per_pair", syscalls / pairs);
  out.add("net.coalesced_frac", frames > 0 ? coalesced / frames : 0);
  out.add("net.epoll_waits_per_pair", epoll_waits / pairs);
  out.add("net.wakeups_per_pair", wakeups / pairs);
  out.add("net.wire_bytes_per_pair", bytes / pairs);
  out.add("mesh.queue_full_stalls_per_pair", stalls / pairs);
  out.add("mesh.hb_miss", hb_miss);
  out.add("mesh.resumes", resumes);
  out.add("mesh.dup_drops", dup_drops);
  out.add("obs.trace_events_per_op", trace_ev / opsd);
  out.add("obs.trace_dropped_per_op", trace_drop / opsd);
  out.add("sim.events_per_op", events / opsd);
  out.add("interconnect.pairs_per_write", writes > 0 ? isc_pairs / writes : 0);
  out.add("net.msgs_per_write",
          writes > 0 ? (fabric_msgs + pairs) / writes : 0);
  std::printf("mesh_chain2 rep: %.0f pairs, window %.3f s, %.0f ops/s, "
              "%.2f us/op, %.2f vcs/pair, drain %.3f s, setup %.4f s, "
              "peak rss %.1f MB\n",
              pairs, window_s, opsd / window_s, used.cpu_us / opsd,
              used.vcs / pairs, out.of("mesh.drain_s").back(),
              out.of("setup_s").back(), peak_rss_mb());
  if (sample) {
    out.add("mesh.journal_full_frac",
            smp.window_samples > 0
                ? static_cast<double>(smp.window_full) /
                      static_cast<double>(2 * smp.window_samples)
                : 0);
    std::printf("mesh_chain2 traced rep: journal_full_frac %.3f over %llu "
                "samples\n",
                out.of("mesh.journal_full_frac").back(),
                static_cast<unsigned long long>(smp.window_samples));
  }
  return used.cpu_us / opsd;
}

/// CPU µs per op of the mesh's logical work run in the simulator on this
/// thread: 2 systems x 4 procs (the two nodes' systems), one link.
double mirror_cpu_us_per_op(std::uint64_t seed, std::size_t ops, bool monitor,
                            isc::LinkWire wire, SpanLog& spans,
                            const char* span_name) {
  isc::FederationConfig cfg;
  cfg.seed = seed;
  cfg.monitor.enabled = monitor;
  cfg.link_wire = wire;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sys;
    sys.id = SystemId{s};
    sys.num_app_processes = kProcs;
    sys.protocol = proto::anbkh_protocol();
    sys.seed = seed + s;
    cfg.systems.push_back(std::move(sys));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  cfg.links.push_back(std::move(link));

  Scoped s(spans, span_name);
  const Usage u0 = Usage::thread();
  isc::Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = ops;
  wc.seed = seed * 2;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  const Usage used = Usage::thread() - u0;
  std::size_t done = 0;
  for (const auto& r : runners) done += r->steps_completed();
  return done > 0 ? used.cpu_us / static_cast<double>(done) : 0;
}

/// Median of per-rep differences a[i] - b[i], and their IQR in the same unit.
struct Delta {
  double median = 0;
  double iqr = 0;
};
Delta paired_delta(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> d;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    d.push_back(a[i] - b[i]);
  Delta out;
  out.median = median(d);
  out.iqr = quantile(d, 0.75) - quantile(d, 0.25);
  return out;
}

void print_ledger(const Samples& s) {
  const std::vector<double>& mesh = s.of("cpu_us_per_op");
  const std::vector<double> zero(mesh.size(), 0.0);
  const double total = median(mesh);
  struct Row {
    const char* layer;
    Delta d;
  };
  const Row rows[] = {
      {"sim+mcs+protocols+interconnect (mirror, monitor off)",
       paired_delta(s.of("ledger.mirror_off"), zero)},
      {"checker online monitor (mirror on - off)",
       paired_delta(s.of("ledger.mirror_on"), s.of("ledger.mirror_off"))},
      {"runtime+mesh+net handoff (mesh - mirror on)",
       paired_delta(mesh, s.of("ledger.mirror_on"))},
      {"  of which wire codec (bytes mirror - mirror on)",
       paired_delta(s.of("ledger.mirror_bytes"), s.of("ledger.mirror_on"))},
  };
  std::printf("mirror ledger: mesh_chain2 cpu_us_per_op %.3f us/op over %zu "
              "paired reps\n",
              total, mesh.size());
  for (const Row& r : rows) {
    const bool unresolved = std::abs(r.d.median) < r.d.iqr || mesh.size() < 2;
    std::printf("  %-54s %8.3f us/op  %6.1f%%  spread %.3f us/op%s\n", r.layer,
                r.d.median, total > 0 ? 100.0 * r.d.median / total : 0.0,
                r.d.iqr, unresolved ? "  UNRESOLVED" : "");
  }
}

}  // namespace

Result run_mesh_chain2(const Options& opt, SpanLog& spans) {
  Result result;
  const auto ops = std::max<std::size_t>(
      50, static_cast<std::size_t>(std::llround(10'000 * opt.scale)));
  // A fixed number of reps per run: a rep is ~0.3 s of window plus a
  // termination wait of ~0.1 or ~2.2 s, and the process's peak RSS climbs
  // with the rep count, so a time-bounded loop would make it unsteady.
  const auto reps = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(opt.seconds / kNominalRepS)));
  Samples s;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::uint64_t rep_seed = opt.seed * 1000 + rep;
    // Traced runs alternate untraced and traced reps: the difference is the
    // tracing overhead, and the traced reps give the sampler's metrics.
    const bool traced_rep = opt.trace && rep % 2 == 1;
    const std::optional<double> cpu =
        mesh_rep(rep_seed, ops, traced_rep, spans, s, result);
    if (!cpu || !opt.trace) continue;  // a failed rep is counted in result
    s.add(traced_rep ? "traced.cpu_us_per_op" : "untraced.cpu_us_per_op",
          *cpu);
    // Mirrors of this rep's logical work, a quarter of its size.
    const std::size_t mops = std::max<std::size_t>(50, ops / 4);
    s.add("ledger.mirror_off",
          mirror_cpu_us_per_op(rep_seed, mops, false, isc::LinkWire::kInMemory,
                               spans, "isc::Federation::run(mirror,off)"));
    s.add("ledger.mirror_on",
          mirror_cpu_us_per_op(rep_seed, mops, true, isc::LinkWire::kInMemory,
                               spans, "isc::Federation::run(mirror,on)"));
    s.add("ledger.mirror_bytes",
          mirror_cpu_us_per_op(rep_seed, mops, true,
                               isc::LinkWire::kLoopbackBytes, spans,
                               "isc::Federation::run(mirror,bytes)"));
  }

  if (!opt.trace) {
    for (const char* m : {"setup_s", "ops_per_s", "cpu_us_per_op"})
      result.set(m, s.median_of(m));
    return result;
  }
  for (const char* m :
       {"mesh.join_s", "mesh.drain_s", "runtime.vcs_per_pair",
        "runtime.ivcs_per_pair", "net.syscalls_per_pair", "net.coalesced_frac",
        "net.epoll_waits_per_pair", "net.wakeups_per_pair",
        "net.wire_bytes_per_pair", "mesh.queue_full_stalls_per_pair",
        "mesh.journal_full_frac", "obs.trace_events_per_op",
        "obs.trace_dropped_per_op", "sim.events_per_op",
        "interconnect.pairs_per_write", "net.msgs_per_write"})
    result.set(m, s.median_of(m));
  // Retries are summed, not medianed: any one on a clean run is news.
  for (const char* m : {"mesh.hb_miss", "mesh.resumes", "mesh.dup_drops"}) {
    double sum = 0;
    for (double v : s.of(m)) sum += v;
    result.set(m, sum);
  }

  const double off = s.median_of("ledger.mirror_off");
  const double on = s.median_of("ledger.mirror_on");
  result.set("sim.mirror_cpu_us_per_op", off);
  result.set("checker.monitor_cpu_us_per_op", on - off);
  result.set("runtime.handoff_cpu_us_per_op",
             s.median_of("cpu_us_per_op") - on);
  result.set("net.codec_cpu_us_per_op",
             s.median_of("ledger.mirror_bytes") - on);
  const double untraced = s.median_of("untraced.cpu_us_per_op");
  const double traced = s.median_of("traced.cpu_us_per_op");
  result.set("bench.trace_overhead_frac",
             untraced > 0 ? traced / untraced - 1 : 0);
  print_ledger(s);
  std::printf("tracing overhead: cpu_us_per_op traced %.3f vs untraced %.3f\n",
              traced, untraced);
  return result;
}

}  // namespace perfbench
