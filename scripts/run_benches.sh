#!/usr/bin/env bash
# Perf-harness driver: run the regression bench binaries N times, median the
# numeric fields across runs, and write one BENCH_<name>.json per bench
# (schema cim.bench.v1 — see docs/BENCHMARKS.md) into the output directory.
#
# Usage:
#   scripts/run_benches.sh [--build DIR] [--out DIR] [--runs N] [--quick]
#                          [bench ...]
#
#   --build DIR   build tree holding the bench binaries (default: build)
#   --out DIR     where the merged BENCH_*.json land (default: bench/out)
#   --runs N      runs per bench; medians absorb host noise (default: 3)
#   --quick       one run per bench (CI smoke mode)
#   bench ...     subset to run (default: tree_scale wire bridge checker)
#
# Every bench binary emits BENCH_<name>.json itself (bench_report.h); the
# harness points CIM_BENCH_JSON at a per-run scratch directory.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD=build
OUT=bench/out
RUNS=3
BENCHES=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build) BUILD=$2; shift 2 ;;
    --out) OUT=$2; shift 2 ;;
    --runs) RUNS=$2; shift 2 ;;
    --quick) RUNS=1; shift ;;
    -h|--help) sed -n '2,20p' "$0"; exit 0 ;;
    *) BENCHES+=("$1"); shift ;;
  esac
done
[[ ${#BENCHES[@]} -gt 0 ]] || BENCHES=(tree_scale wire bridge checker)

# Binary names follow bench_<name>, except the checker gate whose binary
# keeps its historical bench_checker_perf name (report/baseline: checker).
bin_of() {
  case "$1" in
    checker) echo bench_checker_perf ;;
    *) echo "bench_$1" ;;
  esac
}

SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT
mkdir -p "$OUT"

for bench in "${BENCHES[@]}"; do
  bin="$BUILD/bench/$(bin_of "$bench")"
  if [[ ! -x "$bin" ]]; then
    echo "run_benches: missing binary $bin (build first)" >&2
    exit 1
  fi
  echo "== bench_$bench ($RUNS run(s)) =="
  for ((run = 0; run < RUNS; ++run)); do
    rundir="$SCRATCH/$bench/run$run"
    mkdir -p "$rundir"
    CIM_BENCH_JSON="$rundir" "$bin" > "$rundir/stdout.txt"
  done

  python3 - "$bench" "$SCRATCH/$bench" "$OUT" <<'PYEOF'
import glob, json, os, statistics, sys

bench, rundir, out = sys.argv[1], sys.argv[2], sys.argv[3]

reports = []
for d in sorted(glob.glob(os.path.join(rundir, "run*"))):
    found = glob.glob(os.path.join(d, "BENCH_*.json"))
    if not found:
        sys.exit(f"run_benches: no JSON produced in {d}")
    with open(found[0]) as f:
        reports.append(json.load(f))

# Median every numeric field across runs, matching rows by name. Non-numeric
# fields and fields missing from some run are taken from the first run.
merged = dict(reports[0])
rows_by_name = [{r["row"]: r for r in rep["rows"]} for rep in reports]
out_rows = []
for row in reports[0]["rows"]:
    name = row["row"]
    out_row = dict(row)
    for key, val in row.items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            continue
        samples = [rb[name][key] for rb in rows_by_name
                   if name in rb and key in rb[name]]
        med = statistics.median(samples)
        out_row[key] = int(med) if isinstance(val, int) else med
    out_rows.append(out_row)
merged["rows"] = out_rows
merged.setdefault("meta", {})["runs"] = len(reports)

path = os.path.join(out, f"BENCH_{bench}.json")
with open(path, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print(f"  -> {path}")
PYEOF
done
