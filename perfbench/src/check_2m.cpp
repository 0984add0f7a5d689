// check_2m: the offline checker. A 2x10^6-op causal-broadcast history with
// distinct values (the bench_checker_perf generator) is ingested into the
// columnar store and checked at kCM; a repeated-value history (that bench's
// dup generator) exercises the residual reads-from search, so a
// ResidualLimit verdict counts as a failure.
//
// Generation is untimed: the op stream is materialized first, and setup_s is
// the columnar ingest (HistoryBuilder add + build) of that stream.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "checker/causal_checker.h"
#include "checker/history.h"
#include "common/rng.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace cim;

struct GenOp {
  std::uint16_t proc;
  bool write;
  std::uint32_t var;
  Value value;
  std::int64_t t;
};

/// Vector-clock causal-broadcast delivery simulation: every replica applies
/// remote writes in a linearization of causality, reads return the replica's
/// value, every written value is distinct — causal memory by construction.
std::vector<GenOp> cbcast_ops(std::size_t n_ops, std::size_t procs,
                              std::size_t vars, std::uint64_t seed) {
  struct WriteRec {
    std::uint32_t var;
    Value value;
    std::vector<std::uint32_t> dep;  // vector timestamp, dep[origin] = seq
  };
  std::vector<std::vector<WriteRec>> log(procs);
  std::vector<std::vector<std::uint32_t>> vc(
      procs, std::vector<std::uint32_t>(procs, 0));
  std::vector<std::vector<Value>> store(procs,
                                        std::vector<Value>(vars, kInitValue));
  std::vector<std::vector<std::size_t>> next(
      procs, std::vector<std::size_t>(procs, 0));
  std::vector<GenOp> ops;
  ops.reserve(n_ops);
  Rng rng(seed);
  std::int64_t t = 0;
  Value counter = 0;
  while (ops.size() < n_ops) {
    const std::size_t p = rng.uniform(0, procs - 1);
    if (rng.chance(0.5)) {
      // Delivery burst: apply up to a few causally ready remote writes.
      const std::size_t burst = rng.uniform(1, 4);
      for (std::size_t k = 0; k < burst; ++k) {
        bool delivered = false;
        const std::size_t start = rng.uniform(0, procs - 1);
        for (std::size_t d = 0; d < procs && !delivered; ++d) {
          const std::size_t o = (start + d) % procs;
          if (o == p || next[p][o] >= log[o].size()) continue;
          const WriteRec& w = log[o][next[p][o]];
          bool ready = true;
          for (std::size_t r = 0; r < procs && ready; ++r)
            if (r != o && vc[p][r] < w.dep[r]) ready = false;
          if (!ready) continue;
          vc[p][o] = static_cast<std::uint32_t>(++next[p][o]);
          store[p][w.var] = w.value;
          delivered = true;
        }
        if (!delivered) break;
      }
      continue;
    }
    const auto var = static_cast<std::uint32_t>(rng.uniform(0, vars - 1));
    const auto proc = static_cast<std::uint16_t>(p);
    if (rng.chance(0.45)) {
      WriteRec w{var, ++counter, vc[p]};
      w.dep[p] = static_cast<std::uint32_t>(log[p].size() + 1);
      store[p][var] = w.value;
      ++vc[p][p];
      log[p].push_back(std::move(w));
      ops.push_back(GenOp{proc, true, var, counter, t});
    } else {
      ops.push_back(GenOp{proc, false, var, store[p][var], t});
    }
    t += 2;
  }
  return ops;
}

/// Repeated values: proc 0 publishes a distinct-value feed on var 0; every
/// other proc cycles values 1..k on its private var (ambiguous reads-from)
/// and reads a monotone prefix of the feed (cross-process edges).
std::vector<GenOp> dup_ops(std::size_t n_ops, std::size_t procs,
                           std::uint64_t k, std::uint64_t seed) {
  std::vector<Value> feed;
  std::vector<std::size_t> feed_idx(procs, 0);
  std::vector<std::uint64_t> own_cnt(procs, 0);
  std::vector<Value> own_val(procs, kInitValue);
  std::vector<GenOp> ops;
  ops.reserve(n_ops);
  Rng rng(seed);
  for (std::int64_t t = 0; ops.size() < n_ops; t += 2) {
    const std::size_t p = rng.uniform(0, procs - 1);
    const auto proc = static_cast<std::uint16_t>(p);
    if (p == 0) {
      if (rng.chance(0.7)) {
        feed.push_back(1'000'000 + static_cast<Value>(feed.size()) + 1);
        ops.push_back(GenOp{0, true, 0, feed.back(), t});
      } else {
        ops.push_back(
            GenOp{0, false, 0, feed.empty() ? kInitValue : feed.back(), t});
      }
      continue;
    }
    const auto var = static_cast<std::uint32_t>(p);
    const double r = rng.uniform01();
    if (r < 0.45) {
      own_val[p] = static_cast<Value>(own_cnt[p]++ % k) + 1;
      ops.push_back(GenOp{proc, true, var, own_val[p], t});
    } else if (r < 0.55) {
      ops.push_back(GenOp{proc, false, var, own_val[p], t});
    } else {
      const std::size_t avail = feed.size() - feed_idx[p];
      if (avail > 0) feed_idx[p] += rng.uniform(0, avail);
      ops.push_back(GenOp{proc, false, 0,
                          feed_idx[p] == 0 ? kInitValue : feed[feed_idx[p] - 1],
                          t});
    }
  }
  return ops;
}

/// Make the history non-causal: the last read of the stream returns a value
/// no write ever wrote (a thin-air read).
void plant_thin_air_read(std::vector<GenOp>& ops) {
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    if (!it->write) {
      it->value = -12345;
      return;
    }
  }
}

chk::History ingest(const std::vector<GenOp>& ops) {
  chk::HistoryBuilder b;
  for (const GenOp& o : ops)
    b.add(ProcId{SystemId{0}, o.proc}, false,
          o.write ? chk::OpKind::kWrite : chk::OpKind::kRead, VarId{o.var},
          o.value, sim::Time{o.t}, sim::Time{o.t + 1});
  return b.build();
}

}  // namespace

Result run_check_2m(const Options& opt, SpanLog& spans) {
  Result result;
  const auto n = std::max<std::size_t>(
      2'000, static_cast<std::size_t>(std::llround(2'000'000 * opt.scale)));
  const std::size_t n_dup = std::max<std::size_t>(2'000, n / 10);
  result.attempted = n + n_dup;

  std::vector<GenOp> ops = cbcast_ops(n, 6, 24, opt.seed);
  if (opt.noncausal) plant_thin_air_read(ops);

  // setup_s: the columnar ingest, three times; the median is reported.
  Samples s;
  chk::History h;
  for (int i = 0; i < 3; ++i) {
    Scoped sp(spans, "chk::HistoryBuilder::add+build");
    const std::int64_t t0 = now_ns();
    h = ingest(ops);
    s.add("setup_s", seconds_since(t0));
  }
  std::vector<GenOp>().swap(ops);

  // The measured window: kCM checks of the same history, as many as fit.
  chk::CausalChecker checker;
  chk::CheckResult cm;
  const std::int64_t w0 = now_ns();
  double last_s = 0;
  std::size_t checks = 0;
  do {
    // Traced runs alternate checks inside and outside a span.
    const bool traced_check = opt.trace && checks % 2 == 1;
    const int sp = traced_check ? spans.begin("chk::CausalChecker::check(kCM)")
                                : -1;
    const Usage u0 = Usage::thread();
    const std::int64_t t0 = now_ns();
    cm = checker.check(h, chk::Level::kCM);
    last_s = seconds_since(t0);
    spans.end(sp);
    const double cpu = (Usage::thread() - u0).cpu_us;
    s.add("cm_s", last_s);
    s.add("cpu_us_per_op", cpu / static_cast<double>(n));
    s.add(traced_check ? "traced.cm_s" : "untraced.cm_s", last_s);
    ++checks;
  } while (seconds_since(w0) + last_s < opt.seconds ||
           (opt.trace && checks < 2));
  if (!cm.ok()) {
    result.failed += n;
    result.gate_failed(std::string("check_2m: kCM verdict ") +
                       chk::to_string(cm.pattern) + ": " + cm.detail);
  }

  // Repeated values: the residual search must reach a definite verdict.
  const chk::History dup = ingest(dup_ops(n_dup, 8, 32, opt.seed + 1));
  const std::int64_t d0 = now_ns();
  int sp = spans.begin("chk::CausalChecker::check(dup,kCM)");
  const chk::CheckResult dr = checker.check(dup, chk::Level::kCM);
  spans.end(sp);
  const double dup_s = seconds_since(d0);
  if (!dr.ok()) {
    result.failed += n_dup;
    result.gate_failed(std::string("check_2m: dup verdict ") +
                       chk::to_string(dr.pattern) + ": " + dr.detail);
  }
  std::printf("check_2m: %zu ops, %zu kCM checks, dup %zu ops\n", n, checks,
              n_dup);

  const double cm_s = s.median_of("cm_s");
  if (!opt.trace) {
    result.set("setup_s", s.median_of("setup_s"));
    result.set("ops_per_s", static_cast<double>(n) / cm_s);
    result.set("cpu_us_per_op", s.median_of("cpu_us_per_op"));
    return result;
  }
  const std::int64_t c0 = now_ns();
  sp = spans.begin("chk::CausalChecker::check(kCC)");
  const chk::CheckResult cc = checker.check(h, chk::Level::kCC);
  spans.end(sp);
  const double cc_s = seconds_since(c0);
  if (cm.ok() && !cc.ok())
    result.gate_failed("check_2m: kCM passes but kCC fails");
  const double nd = static_cast<double>(n);
  result.set("checker.ingest_ops_per_s", nd / s.median_of("setup_s"));
  result.set("checker.bytes_per_op", h.bytes_per_op());
  result.set("checker.cm_s", cm_s);
  result.set("checker.cc_s", cc_s);
  result.set("checker.explicit_edges_per_op",
             static_cast<double>(cm.stats.explicit_edges) / nd);
  result.set("checker.dup_s", dup_s);
  result.set("checker.ambiguous_reads",
             static_cast<double>(dr.stats.ambiguous_reads));
  result.set("checker.assignments_tried",
             static_cast<double>(dr.stats.assignments_tried));
  const double plain = s.median_of("untraced.cm_s");
  result.set("bench.trace_overhead_frac",
             plain > 0 ? s.median_of("traced.cm_s") / plain - 1 : 0);
  return result;
}

}  // namespace perfbench
