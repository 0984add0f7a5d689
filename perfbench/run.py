#!/usr/bin/env python3
"""The repository benchmark (perfbench/README.md).

Builds perfbench/ (which builds the repository's libraries from ../src) into
.bench_build/perfbench, runs one workload in a fresh process, checks that
the result names every metric BENCHMARK.json declares for the run's mode,
with its unit and a finite value, and prints the result as the last line of
standard output.

    python3 perfbench/run.py --workload mesh_chain2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --self-test

Exit code 0 when the run's correctness gates held; nonzero when a gate failed,
the build failed, or the result was incomplete (then no result is printed).
"""
import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "cim_perfbench"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally. False on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("perfbench: no repository sources next to perfbench/")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "cim_perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            log(f"perfbench: {e}")
            return False
        if rc != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_binary(workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout lines) or None on timeout."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}_seed{seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    return proc.returncode, out.splitlines()


def parse_result(lines, expected):
    """The run's JSON result if it is complete, else None (reason on stderr)."""
    if not lines:
        log("perfbench: no output")
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: last line is not JSON: {lines[-1][:200]}")
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        log(f"perfbench: unexpected result keys {sorted(res)}")
        return None
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        log("perfbench: attempted must be a whole number >= 1")
        return None
    ok = True
    for m in expected:
        got = res["metrics"].get(m["name"])
        if got is None:
            log(f"perfbench: metric {m['name']} missing")
            ok = False
        elif got.get("unit") != m["unit"]:
            log(f"perfbench: metric {m['name']} has unit {got.get('unit')}, "
                f"declared {m['unit']}")
            ok = False
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            log(f"perfbench: metric {m['name']} is not a finite number")
            ok = False
    return res if ok else None


def expected_metrics(trace):
    s = spec()
    return s["per_layer"] if trace else s["end_to_end"]


def run_one(workload, seed, seconds, trace, extra=()):
    """(exit code, result or None, human-readable lines)."""
    ran = run_binary(workload, seed, seconds, trace, extra)
    if ran is None:
        return 1, None, []
    rc, lines = ran
    res = parse_result(lines, expected_metrics(trace))
    return rc, res, lines[:-1]


def self_test():
    """Every workload at reduced size, untraced and traced: every declared
    metric is emitted, finite and carries its unit. A non-causal history fed
    to the check path must fail the gate and count its ops as failed."""
    failures = []
    for w in spec()["workloads"]:
        for trace in (0, 1):
            rc, res, _ = run_one(w["name"], 7, 1, trace, ["--scale", "0.02"])
            if res is None or rc != 0 or not res["correct"] or res["failed"]:
                failures.append(f"{w['name']} trace={trace}")
    rc, res, _ = run_one("check_2m", 7, 1, 0, ["--scale", "0.02", "--noncausal"])
    if rc == 0 or res is None or res["correct"] or res["failed"] == 0 or \
            res["metrics"]["completed_frac"]["value"] >= 1:
        failures.append("check_2m --noncausal was not reported as failed")
    for f in failures:
        log(f"self-test FAILED: {f}")
    print("self-test", "passed" if not failures else "failed")
    return 0 if not failures else 1


def run_all(seed, seconds):
    """Every workload, untraced then traced, as one table plus one JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for w in spec()["workloads"]:
        for trace in (0, 1):
            rc, res, lines = run_one(w["name"], seed, seconds, trace)
            for line in lines:
                print(line)
            if res is None:
                return 1
            print(f"== {w['name']} ({'traced' if trace else 'untraced'})")
            for name, m in sorted(res["metrics"].items()):
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
            combined["correct"] &= res["correct"] and rc == 0
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            combined["workloads"].setdefault(w["name"], {}).update(res["metrics"])
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    rc, res, lines = run_one(args.workload, args.seed, seconds, args.trace)
    if res is None:
        return 1
    for line in lines:
        print(line)
    print(json.dumps(res), flush=True)
    return 0 if rc == 0 and res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
