// Checker performance gate: wall-clock cost and storage footprint of the
// sparse dependency-graph checker on multi-million-op histories
// (docs/CHECKER.md, docs/BENCHMARKS.md).
//
// Histories are generated directly — no federation simulation — so the bench
// isolates the checker. Two generators:
//
//  * cbcast_history: a vector-clock causal-broadcast simulation. Every
//    write carries the issuer's dependency vector and is applied at a peer
//    only once all its dependencies are applied; reads return the replica's
//    current value. Each replica's apply order is a linearization of
//    causality, so the history is causal memory *by construction* and every
//    written value is distinct (the paper's regime: reads-from is
//    unambiguous, the check is pure phase A).
//
//  * dup_history: repeated written values. Each process cycles a small value
//    alphabet on a variable it alone writes (so every read of it has many
//    admissible writers) while also reading a monotone prefix of a shared
//    single-writer feed (cross-process edges). Exercises the residual
//    reads-from constraint search that replaced the old kDuplicateWrite
//    rejection.
//
// Rows (names are stable even under CIM_CHECKER_BENCH_OPS so baselines and
// smoke runs line up): cm_2m / cc_2m check the same 2e6-op broadcast history
// at levels kCM / kCC; dup_200k checks a 2e5-op repeated-value history at
// kCM. The acceptance bar for this PR: cm_2m under 10 s Release, and
// bytes_per_op at least 4x below History::struct_bytes_per_op().
//
// Environment:
//   CIM_CHECKER_BENCH_OPS=<n>  ops for the cm/cc rows (dup row: n/10);
//                              CI sanitizer smoke uses a small n.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_report.h"
#include "checker/causal_checker.h"
#include "checker/history.h"
#include "common/rng.h"
#include "obs/table.h"

namespace {

using namespace cim;

constexpr std::uint64_t kSeed = 20260809;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProcId proc_id(std::size_t p) {
  return ProcId{SystemId{0}, static_cast<std::uint16_t>(p)};
}

// Causal-broadcast delivery simulation, distinct values throughout.
chk::History cbcast_history(std::size_t n_ops, std::size_t procs,
                            std::size_t vars, std::uint64_t seed) {
  struct WriteRec {
    std::uint32_t var;
    Value value;
    std::vector<std::uint32_t> dep;  // vector timestamp, dep[origin] = seq
  };
  std::vector<std::vector<WriteRec>> log(procs);  // per-origin publish order
  std::vector<std::vector<std::uint32_t>> vc(
      procs, std::vector<std::uint32_t>(procs, 0));
  std::vector<std::vector<Value>> store(
      procs, std::vector<Value>(vars, kInitValue));
  std::vector<std::vector<std::size_t>> next_idx(
      procs, std::vector<std::size_t>(procs, 0));

  chk::HistoryBuilder b;
  Rng rng(seed);
  std::int64_t t = 0;
  Value counter = 0;
  std::size_t issued = 0;
  while (issued < n_ops) {
    const std::size_t p = rng.uniform(0, procs - 1);
    if (rng.chance(0.5)) {
      // Delivery burst: apply up to a few causally-ready remote writes.
      const std::size_t burst = rng.uniform(1, 4);
      for (std::size_t k = 0; k < burst; ++k) {
        bool delivered = false;
        const std::size_t start = rng.uniform(0, procs - 1);
        for (std::size_t d = 0; d < procs && !delivered; ++d) {
          const std::size_t o = (start + d) % procs;
          if (o == p) continue;
          const std::size_t i = next_idx[p][o];
          if (i >= log[o].size()) continue;
          const WriteRec& w = log[o][i];
          bool ready = true;
          for (std::size_t r = 0; r < procs && ready; ++r) {
            if (r != o && vc[p][r] < w.dep[r]) ready = false;
          }
          if (!ready) continue;
          vc[p][o] = static_cast<std::uint32_t>(i + 1);
          next_idx[p][o] = i + 1;
          store[p][w.var] = w.value;
          delivered = true;
        }
        if (!delivered) break;
      }
      continue;
    }
    const auto var = static_cast<std::uint32_t>(rng.uniform(0, vars - 1));
    if (rng.chance(0.45)) {
      WriteRec w;
      w.var = var;
      w.value = ++counter;
      w.dep = vc[p];
      w.dep[p] = static_cast<std::uint32_t>(log[p].size() + 1);
      store[p][var] = w.value;
      ++vc[p][p];
      log[p].push_back(std::move(w));
      b.add(proc_id(p), false, chk::OpKind::kWrite, VarId{var}, counter,
            sim::Time{t}, sim::Time{t + 1});
    } else {
      b.add(proc_id(p), false, chk::OpKind::kRead, VarId{var}, store[p][var],
            sim::Time{t}, sim::Time{t + 1});
    }
    t += 2;
    ++issued;
  }
  return b.build();
}

// Repeated-value history: proc 0 publishes a distinct-value feed on var 0;
// every other proc cycles values 1..k on its private var (ambiguous
// reads-from) and reads a monotone prefix of the feed (cross edges).
chk::History dup_history(std::size_t n_ops, std::size_t procs,
                         std::uint64_t k, std::uint64_t seed) {
  std::vector<Value> feed;                      // proc 0's published values
  std::vector<std::size_t> feed_idx(procs, 0);  // delivered prefix per proc
  std::vector<std::uint64_t> own_cnt(procs, 0);
  std::vector<Value> own_val(procs, kInitValue);

  chk::HistoryBuilder b;
  Rng rng(seed);
  std::int64_t t = 0;
  for (std::size_t issued = 0; issued < n_ops; ++issued, t += 2) {
    const std::size_t p = rng.uniform(0, procs - 1);
    if (p == 0) {
      if (rng.chance(0.7)) {
        const Value v = 1'000'000 + static_cast<Value>(feed.size()) + 1;
        feed.push_back(v);
        b.add(proc_id(0), false, chk::OpKind::kWrite, VarId{0}, v,
              sim::Time{t}, sim::Time{t + 1});
      } else {
        const Value v = feed.empty() ? kInitValue : feed.back();
        b.add(proc_id(0), false, chk::OpKind::kRead, VarId{0}, v,
              sim::Time{t}, sim::Time{t + 1});
      }
      continue;
    }
    const auto var = static_cast<std::uint32_t>(p);
    const double r = rng.uniform01();
    if (r < 0.45) {
      const Value v = static_cast<Value>(own_cnt[p] % k) + 1;
      ++own_cnt[p];
      own_val[p] = v;
      b.add(proc_id(p), false, chk::OpKind::kWrite, VarId{var}, v,
            sim::Time{t}, sim::Time{t + 1});
    } else if (r < 0.55) {
      b.add(proc_id(p), false, chk::OpKind::kRead, VarId{var}, own_val[p],
            sim::Time{t}, sim::Time{t + 1});
    } else {
      const std::size_t avail = feed.size() - feed_idx[p];
      if (avail > 0) feed_idx[p] += rng.uniform(0, avail);
      const Value v = feed_idx[p] == 0 ? kInitValue : feed[feed_idx[p] - 1];
      b.add(proc_id(p), false, chk::OpKind::kRead, VarId{0}, v, sim::Time{t},
            sim::Time{t + 1});
    }
  }
  return b.build();
}

bool run_row(bench::JsonReport& report, obs::Table& table,
             const std::string& name, const chk::History& h, double build_ms,
             chk::Level level) {
  chk::CausalChecker checker;
  const double t0 = now_s();
  const chk::CheckResult res = checker.check(h, level);
  const double check_ms = (now_s() - t0) * 1e3;
  const double ops_per_sec =
      check_ms > 0 ? static_cast<double>(h.size()) / (check_ms / 1e3) : 0.0;

  report.row(name)
      .field("ops", static_cast<std::int64_t>(h.size()))
      .field("build_ms", build_ms)
      .field("check_ms", check_ms)
      .field("check_ops_per_sec", ops_per_sec)
      .field("bytes_per_op", h.bytes_per_op())
      .field("struct_bytes_per_op",
             static_cast<std::int64_t>(chk::History::struct_bytes_per_op()))
      .field("ambiguous_reads",
             static_cast<std::int64_t>(res.stats.ambiguous_reads))
      .field("assignments_tried",
             static_cast<std::int64_t>(res.stats.assignments_tried))
      .field("explicit_edges",
             static_cast<std::int64_t>(res.stats.explicit_edges))
      .field("hb_rounds", static_cast<std::int64_t>(res.stats.hb_rounds))
      .field("resolve_ms", res.stats.resolve_ms)
      .field("phase_a_ms", res.stats.phase_a_ms)
      .field("hb_ms", res.stats.hb_ms)
      .field("residual_ms", res.stats.residual_ms)
      .field("pattern", chk::to_string(res.pattern));

  char bpo[32], cms[32], bms[32], mops[32];
  std::snprintf(bpo, sizeof(bpo), "%.1f", h.bytes_per_op());
  std::snprintf(cms, sizeof(cms), "%.1f", check_ms);
  std::snprintf(bms, sizeof(bms), "%.1f", build_ms);
  std::snprintf(mops, sizeof(mops), "%.2f", ops_per_sec / 1e6);
  table.add_row(name, h.size(), bms, cms, mops, bpo,
                chk::to_string(res.pattern));

  if (!res.ok()) {
    std::fprintf(stderr, "bench_checker_perf: %s verdict %s: %s\n",
                 name.c_str(), chk::to_string(res.pattern),
                 res.detail.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main() {
  std::size_t ops = 2'000'000;
  if (const char* env = std::getenv("CIM_CHECKER_BENCH_OPS")) {
    const std::size_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) ops = n;
  }
  const std::size_t dup_ops = std::max<std::size_t>(ops / 10, 2'000);

  bench::JsonReport report("checker");
  report.meta("seed", kSeed);
  report.meta("ops", static_cast<std::uint64_t>(ops));
  obs::Table table(
      {"row", "ops", "build ms", "check ms", "Mops/s", "bytes/op", "verdict"});

  bool ok = true;

  double t0 = now_s();
  const chk::History cm = cbcast_history(ops, 6, 24, kSeed);
  const double cm_build_ms = (now_s() - t0) * 1e3;
  ok &= run_row(report, table, "cm_2m", cm, cm_build_ms, chk::Level::kCM);
  ok &= run_row(report, table, "cc_2m", cm, cm_build_ms, chk::Level::kCC);

  t0 = now_s();
  const chk::History dup = dup_history(dup_ops, 8, 32, kSeed + 1);
  const double dup_build_ms = (now_s() - t0) * 1e3;
  ok &= run_row(report, table, "dup_200k", dup, dup_build_ms,
                chk::Level::kCM);

  table.print();

  // The columnar-footprint acceptance bar travels with the bench so a layout
  // regression fails loudly even without a blessed baseline.
  if (cm.bytes_per_op() * 4 > chk::History::struct_bytes_per_op()) {
    std::fprintf(stderr,
                 "bench_checker_perf: bytes_per_op %.1f is not 4x below the "
                 "struct footprint %zu\n",
                 cm.bytes_per_op(), chk::History::struct_bytes_per_op());
    ok = false;
  }
  return ok ? 0 : 1;
}
