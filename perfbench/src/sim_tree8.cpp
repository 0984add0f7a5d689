// sim_tree8: 8 ANBKH systems x 4 procs in a binary tree with shared
// IS-processes, run in the deterministic simulator on this thread with the
// monitor off, in-memory links, l = 100 us and d = 1 ms (the perf.binary_m8
// shape of bench_tree_scale, run far longer). No threads, sockets, sessions
// or monitor: sim, mcs/protocols and interconnect forwarding do all the work.
//
// Every timed repetition runs the same seeded inputs, so repetitions differ
// only by host noise. One untimed repetition afterwards folds virtual-time
// visibility through a MemoryObserver, re-checks that the event count is the
// timed one (determinism), and checks the federation history at kCM.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "checker/causal_checker.h"
#include "common/pool.h"
#include "harness.h"
#include "interconnect/federation.h"
#include "net/delay.h"
#include "protocols/anbkh.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace cim;

constexpr std::size_t kSystems = 8;
constexpr std::uint16_t kProcs = 4;

isc::FederationConfig tree_config(std::uint64_t seed) {
  isc::FederationConfig cfg;
  cfg.seed = seed;
  cfg.link_wire = isc::LinkWire::kInMemory;
  for (std::size_t s = 0; s < kSystems; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{static_cast<std::uint16_t>(s)};
    sc.num_app_processes = kProcs;
    sc.protocol = proto::anbkh_protocol();
    sc.seed = seed * 1000 + s;
    sc.intra_delay = [] {
      return std::make_unique<net::FixedDelay>(sim::microseconds(100));
    };
    cfg.systems.push_back(std::move(sc));
  }
  for (std::size_t s = 1; s < kSystems; ++s) {
    isc::LinkSpec link;
    link.system_a = (s - 1) / 2;
    link.system_b = s;
    link.delay = [] {
      return std::make_unique<net::FixedDelay>(sim::milliseconds(1));
    };
    cfg.links.push_back(std::move(link));
  }
  return cfg;
}

/// Virtual-time write -> apply latency: per write, the time until every
/// other application replica applied it (the paper's visibility `l`).
/// Values are unique per run (UniqueValueSource), so they key the writes.
class VisibilityFold final : public mcs::MemoryObserver {
 public:
  void on_write_issued(ProcId writer, VarId, Value value,
                       sim::Time t) override {
    if (writer.index >= kProcs) return;  // an IS-process re-issuing a pair
    writes_.try_emplace(value, Write{writer, t.ns, t.ns, 0});
  }
  void on_apply(ProcId replica, VarId, Value value, sim::Time t) override {
    if (replica.index >= kProcs) return;
    auto it = writes_.find(value);
    if (it == writes_.end() || it->second.writer == replica) return;
    it->second.last_apply_ns = std::max(it->second.last_apply_ns, t.ns);
    ++it->second.applies;
  }
  /// Visibility of every write that reached all other replicas, in ms.
  std::vector<double> visibilities_ms() const {
    const std::size_t others = kSystems * kProcs - 1;
    std::vector<double> out;
    out.reserve(writes_.size());
    for (const auto& [v, w] : writes_)
      if (w.applies >= others)
        out.push_back(static_cast<double>(w.last_apply_ns - w.issue_ns) / 1e6);
    return out;
  }
  std::size_t writes() const { return writes_.size(); }

 private:
  struct Write {
    ProcId writer;
    std::int64_t issue_ns;
    std::int64_t last_apply_ns;
    std::size_t applies;
  };
  std::unordered_map<Value, Write> writes_;
};

struct Rep {
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
};

/// Construct, install, run. `observer` may be null.
Rep tree_rep(std::uint64_t seed, std::size_t ops_per_process,
             mcs::MemoryObserver* observer, SpanLog& spans, Samples& out,
             std::unique_ptr<isc::Federation>* keep = nullptr) {
  Scoped rep_span(spans, "sim.rep");
  const std::int64_t t0 = now_ns();
  int sp = spans.begin("isc::Federation::Federation", rep_span.id());
  auto fed = std::make_unique<isc::Federation>(tree_config(seed));
  spans.end(sp);
  if (observer != nullptr) fed->add_observer(observer);
  wl::UniformConfig wc;
  wc.ops_per_process = ops_per_process;
  wc.write_fraction = 0.5;
  wc.num_vars = 8;
  wc.seed = seed;
  sp = spans.begin("wl::install_uniform", rep_span.id());
  auto runners = wl::install_uniform(*fed, wc);
  spans.end(sp);
  const double setup_s = seconds_since(t0);

  const std::uint64_t hits0 = BlockPool::hits();
  const std::uint64_t misses0 = BlockPool::misses();
  const Usage u0 = Usage::thread();
  const std::int64_t r0 = now_ns();
  sp = spans.begin("isc::Federation::run", rep_span.id());
  fed->run();
  spans.end(sp);
  const double run_s = seconds_since(r0);
  const Usage used = Usage::thread() - u0;
  const double hits = static_cast<double>(BlockPool::hits() - hits0);
  const double misses = static_cast<double>(BlockPool::misses() - misses0);

  Rep rep;
  for (const auto& r : runners) rep.ops += r->steps_completed();
  rep.events = fed->simulator().events_fired();
  const double ops = static_cast<double>(rep.ops);
  const double events = static_cast<double>(rep.events);
  const obs::MetricsSnapshot snap = fed->metrics_snapshot();
  // mcs.writes also counts the IS-processes' local writes of received pairs.
  const double writes =
      snapshot_value(snap, "mcs.writes") -
      snapshot_value(snap, "isc.pairs_received");
  out.add("setup_s", setup_s);
  out.add("ops_per_s", ops / run_s);
  out.add("cpu_us_per_op", used.cpu_us / ops);
  out.add("sim.events_per_op", events / ops);
  out.add("sim.events_per_s", events / run_s);
  out.add("sim.queue_depth_peak",
          static_cast<double>(fed->simulator().max_pending()));
  out.add("common.pool_miss_frac",
          hits + misses > 0 ? misses / (hits + misses) : 0);
  out.add("interconnect.pairs_per_write",
          writes > 0 ? snapshot_value(snap, "isc.pairs_sent") / writes : 0);
  out.add("net.msgs_per_write",
          writes > 0 ? static_cast<double>(fed->fabric().total_messages()) /
                           writes
                     : 0);
  std::printf("sim_tree8 rep: %.0f ops in %.3f s, %.3f us/op, %.0f events/s\n",
              ops, run_s, used.cpu_us / ops, events / run_s);
  if (keep != nullptr) *keep = std::move(fed);
  return rep;
}

}  // namespace

Result run_sim_tree8(const Options& opt, SpanLog& spans) {
  Result result;
  const auto per_proc = std::max<std::size_t>(
      20, static_cast<std::size_t>(std::llround(5'000 * opt.scale)));
  const std::uint64_t attempted_per_rep = kSystems * kProcs * per_proc;

  Samples timed, traced, untraced;
  std::uint64_t events = 0;
  const std::int64_t t0 = now_ns();
  std::size_t rep = 0;
  do {
    // Traced runs alternate plain reps and reps with the visibility fold
    // attached; the difference is the tracing overhead.
    const bool traced_rep = opt.trace && rep % 2 == 1;
    VisibilityFold fold;
    Samples& out = !opt.trace ? timed : traced_rep ? traced : untraced;
    const Rep r = tree_rep(opt.seed, per_proc, traced_rep ? &fold : nullptr,
                           spans, out);
    result.attempted += attempted_per_rep;
    result.failed += attempted_per_rep - std::min(attempted_per_rep, r.ops);
    if (events != 0 && r.events != events)
      result.gate_failed("sim_tree8: identical reps fired different events");
    events = r.events;
    ++rep;
  } while (seconds_since(t0) < opt.seconds || (opt.trace && rep < 2));

  // Untimed verification rep: visibility fold, determinism, kCM history.
  VisibilityFold fold;
  Samples verify;
  std::unique_ptr<isc::Federation> fed;
  const Rep r = tree_rep(opt.seed, per_proc, &fold, spans, verify, &fed);
  if (r.events != events)
    result.gate_failed("sim_tree8: observed rep is not the timed execution");
  const chk::History history = fed->federation_history();
  chk::CausalChecker checker;
  std::int64_t c0 = now_ns();
  int sp = spans.begin("chk::CausalChecker::check(kCM)");
  const chk::CheckResult cm = checker.check(history, chk::Level::kCM);
  spans.end(sp);
  const double cm_s = seconds_since(c0);
  if (!cm.ok()) {
    result.failed = result.attempted;
    result.gate_failed(std::string("sim_tree8: history not causal: ") +
                       chk::to_string(cm.pattern) + " " + cm.detail);
  }

  std::vector<double> vis = fold.visibilities_ms();
  std::printf("sim_tree8: %zu reps x %llu ops, %llu events/rep, %zu of %zu "
              "writes visible everywhere\n",
              rep, static_cast<unsigned long long>(attempted_per_rep),
              static_cast<unsigned long long>(events), vis.size(),
              fold.writes());
  if (vis.size() != fold.writes())
    result.gate_failed("sim_tree8: a write never became visible everywhere");

  if (!opt.trace) {
    result.set("setup_s", timed.median_of("setup_s"));
    result.set("ops_per_s", timed.median_of("ops_per_s"));
    result.set("cpu_us_per_op", timed.median_of("cpu_us_per_op"));
    return result;
  }
  result.set("visibility_p50_ms", quantile(vis, 0.5));
  result.set("visibility_p99_ms", quantile(vis, 0.99));
  result.set("visibility_samples", static_cast<double>(vis.size()));
  result.set("sim.events_per_op", untraced.median_of("sim.events_per_op"));
  result.set("sim.events_per_s", untraced.median_of("sim.events_per_s"));
  result.set("sim.queue_depth_peak",
             untraced.median_of("sim.queue_depth_peak"));
  result.set("common.pool_miss_frac",
             untraced.median_of("common.pool_miss_frac"));
  result.set("interconnect.pairs_per_write",
             untraced.median_of("interconnect.pairs_per_write"));
  result.set("net.msgs_per_write", untraced.median_of("net.msgs_per_write"));
  const double plain = untraced.median_of("cpu_us_per_op");
  result.set("bench.trace_overhead_frac",
             plain > 0 ? traced.median_of("cpu_us_per_op") / plain - 1 : 0);

  c0 = now_ns();
  sp = spans.begin("chk::CausalChecker::check(kCC)");
  const chk::CheckResult cc = checker.check(history, chk::Level::kCC);
  spans.end(sp);
  const double cc_s = seconds_since(c0);
  if (!cc.ok()) result.gate_failed("sim_tree8: history fails kCC");
  const double n = static_cast<double>(history.size());
  result.set("checker.cm_s", cm_s);
  result.set("checker.cc_s", cc_s);
  result.set("checker.explicit_edges_per_op",
             static_cast<double>(cm.stats.explicit_edges) / n);
  result.set("checker.bytes_per_op", history.bytes_per_op());
  std::printf("tracing overhead: cpu_us_per_op traced %.4f vs untraced %.4f\n",
              traced.median_of("cpu_us_per_op"), plain);
  return result;
}

}  // namespace perfbench
