#!/usr/bin/env python3
"""Diff two directories of BENCH_*.json perf reports (schema cim.bench.v1).

Usage:
    scripts/compare_benches.py --baseline bench/baseline --candidate bench/out
                               [--threshold 0.10] [--cliff 0.25] [--warn-only]

Rows are matched by (bench, row name). Only fields with a known "direction"
are judged:

    higher is better:  *_per_sec, *_per_second
    lower is better:   wall_s, real_time_ns, cpu_time_ns, reconnect_ms, ...

A small INFORMATIONAL set overrides the suffix rules for metrics too noisy
to gate (see the comment at the definition).

A change worse than --threshold (default 10%) is a REGRESSION; with
--warn-only it only warns unless the change is worse than --cliff (default
25%), the hard-fail backstop for noisy shared runners. Improvements and
informational fields are printed but never fail the run.

Virtual-time fields are judged exactly instead (the EXACT table): the
simulator is deterministic, so any difference from the baseline -- a
changed value, or a row or field the candidate lacks -- is a MISMATCH and
fails the run, --warn-only or not.

Exit status: 0 clean (or warnings only), 1 regression or exact mismatch,
2 usage/IO error.
"""

import argparse
import glob
import json
import os
import sys

HIGHER_BETTER = ("_per_sec", "_per_second")
LOWER_BETTER = {"wall_s", "real_time_ns", "cpu_time_ns", "bytes_per_msg",
                "syscalls_per_msg", "reconnect_ms", "check_ms",
                "bytes_per_op", "resolve_ms", "phase_a_ms", "hb_ms",
                "residual_ms"}
# Fields exempt from the suffix rules: reported for the record but never
# judged. post_recovery_msgs_per_sec times the catch-up burst right after a
# rejoin, whose size depends on how much queued during the outage — a
# 100x run-to-run spread that no threshold can gate. The obs_overhead pair
# differences two noisy absolute throughputs (stats plane off vs on) to
# expose the plane's relative cost; the delta is the point, the absolutes
# swing with host load, so all three stay visible but ungated.
INFORMATIONAL = {"post_recovery_msgs_per_sec", "stats_off_msgs_per_sec",
                 "stats_on_msgs_per_sec", "overhead_pct"}
# Exact fields per bench: the virtual-time results, identical on every host
# and build for a fixed seed. None means every field of every row. Only
# tree_scale mixes in wall-clock fields (wall_s and the rates derived from
# it), which the threshold rules above judge.
EXACT = {
    "tree_scale": {"paper", "measured", "paper_ns", "measured_ns", "events",
                   "ops", "p99_visibility_ns"},
    "latency": None,
    "visibility_distribution": None,
}
# Build-identity meta fields: differing values make the comparison
# apples-to-oranges, so they warn loudly.
IDENTITY_META = ("compiler", "compiler_version", "build_type", "sanitize")


def direction(field):
    if field in INFORMATIONAL:
        return 0
    if any(field.endswith(suf) for suf in HIGHER_BETTER):
        return +1
    if field in LOWER_BETTER:
        return -1
    return 0


def is_exact(bench, field):
    if bench not in EXACT or field == "row":
        return False
    fields = EXACT[bench]
    return fields is None or field in fields


def load_reports(directory):
    reports = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        with open(path) as f:
            doc = json.load(f)
        reports[doc.get("bench", os.path.basename(path))] = doc
    return reports


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--candidate", required=True)
    ap.add_argument("--threshold", type=float, default=0.10)
    ap.add_argument("--cliff", type=float, default=0.25)
    ap.add_argument("--warn-only", action="store_true")
    args = ap.parse_args()

    base = load_reports(args.baseline)
    cand = load_reports(args.candidate)
    if not base:
        print(f"compare_benches: no BENCH_*.json in {args.baseline}",
              file=sys.stderr)
        return 2
    if not cand:
        print(f"compare_benches: no BENCH_*.json in {args.candidate}",
              file=sys.stderr)
        return 2

    regressions = warnings = improvements = compared = mismatches = 0
    for bench, bdoc in sorted(base.items()):
        cdoc = cand.get(bench)
        if cdoc is None:
            print(f"[warn] {bench}: present in baseline, missing in candidate")
            warnings += 1
            continue

        bmeta, cmeta = bdoc.get("meta", {}), cdoc.get("meta", {})
        for key in IDENTITY_META:
            if key in bmeta and key in cmeta and bmeta[key] != cmeta[key]:
                print(f"[warn] {bench}: meta.{key} differs "
                      f"({bmeta[key]} -> {cmeta[key]}); comparison may be "
                      f"apples-to-oranges")
                warnings += 1

        brows = {r["row"]: r for r in bdoc.get("rows", [])}
        crows = {r["row"]: r for r in cdoc.get("rows", [])}
        for name, brow in sorted(brows.items()):
            crow = crows.get(name)
            if crow is None:
                if bench in EXACT:
                    print(f"[MISMATCH] {bench}/{name}: row missing in "
                          f"candidate")
                    mismatches += 1
                else:
                    print(f"[warn] {bench}/{name}: row missing in candidate")
                    warnings += 1
                continue
            for field, bval in brow.items():
                if is_exact(bench, field):
                    compared += 1
                    cval = crow.get(field, "<missing>")
                    if cval != bval:
                        print(f"[MISMATCH] {bench}/{name}.{field}: "
                              f"{bval} -> {cval} (exact field)")
                        mismatches += 1
                    continue
                sign = direction(field)
                if sign == 0 or not isinstance(bval, (int, float)) \
                        or isinstance(bval, bool):
                    continue
                cval = crow.get(field)
                if not isinstance(cval, (int, float)) or bval == 0:
                    continue
                compared += 1
                # Positive delta = better, for either direction.
                delta = sign * (cval - bval) / abs(bval)
                tag = f"{bench}/{name}.{field}"
                pct = f"{delta * +100:+.1f}%"
                if delta < -args.threshold:
                    hard = delta < -args.cliff or not args.warn_only
                    kind = "REGRESSION" if hard else "warn-regression"
                    print(f"[{kind}] {tag}: {bval:g} -> {cval:g} ({pct})")
                    if hard:
                        regressions += 1
                    else:
                        warnings += 1
                elif delta > args.threshold:
                    print(f"[improved] {tag}: {bval:g} -> {cval:g} ({pct})")
                    improvements += 1

    print(f"\ncompare_benches: {compared} metrics compared, "
          f"{improvements} improved, {warnings} warning(s), "
          f"{regressions} regression(s), {mismatches} exact mismatch(es)")
    return 1 if regressions or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
