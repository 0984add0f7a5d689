#!/usr/bin/env bash
# n cim_bridge processes — one causal memory system each — joined into a
# tree mesh over localhost TCP through the epoll transport, then the merged
# history is checked for causal consistency: the paper's Corollary 1 (any
# tree of causal systems is causal) observed over real sockets. See
# docs/BRIDGE.md. Wired into CI as the `mesh-smoke` step.
#
# usage: scripts/mesh_smoke.sh [BUILD_DIR] [BASE_PORT] [SHAPE] [N] [OUT_DIR]
#                              [OPS]
#
# OPS is the operations per application process (4 per node; default 25).
# OUT_DIR keeps the per-node histories, metrics, and the checker output for
# artifact upload on failure; default is a temp dir removed on success. CI
# passes an explicit OUT_DIR and uploads it as an artifact when this fails.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
base_port="${2:-9517}"
shape="${3:-btree}"
n="${4:-4}"
out="${5:-}"
ops="${6:-25}"

bridge="$build/tools/cim_bridge"
checker="$build/examples/trace_checker"
cim_trace="$build/tools/cim_trace"
cim_top="$build/tools/cim_top"
for bin in "$bridge" "$checker" "$cim_trace" "$cim_top"; do
  if [ ! -x "$bin" ]; then
    echo "mesh_smoke: missing $bin (build the project first)" >&2
    exit 1
  fi
done

keep_out=1
if [ -z "$out" ]; then
  out="$(mktemp -d)"
  keep_out=0
  trap 'rm -rf "$out"' EXIT
fi
mkdir -p "$out"

# Launch the whole mesh at once; the join protocol absorbs start-order
# races (dialers retry, acceptors wait under a deadline). Every node traces
# and runs the stats plane; node 0 folds the federation metrics snapshot
# that cim_top and cim_trace merge consume below (docs/BRIDGE.md "Stats
# aggregation").
i=0
pids=""
while [ "$i" -lt "$n" ]; do
  fed_flags=""
  if [ "$i" -eq 0 ]; then
    fed_flags="--fed-metrics $out/fed.json"
  fi
  # shellcheck disable=SC2086
  "$bridge" --node "$i" --shape "$shape" --n "$n" --base-port "$base_port" \
    --procs 4 --ops "$ops" \
    --history "$out/n$i.hist" --metrics "$out/n$i.json" \
    --trace "$out/n$i.jsonl" --stats-interval 50 $fed_flags \
    > "$out/n$i.log" 2>&1 &
  pids="$pids $!"
  i=$((i + 1))
done

status=0
for pid in $pids; do
  wait "$pid" || status=$?
done
if [ "$status" -ne 0 ]; then
  echo "mesh_smoke: a mesh process failed (status $status); node logs:" >&2
  cat "$out"/n*.log >&2
  exit 1
fi

# The merged computation of all n OS processes must be causally consistent
# (node i's values live in [i*1'000'000, ...), so concatenation is a
# well-formed single history).
i=0
: > "$out/merged.trace"
while [ "$i" -lt "$n" ]; do
  cat "$out/n$i.hist" >> "$out/merged.trace"
  i=$((i + 1))
done
"$checker" "$out/merged.trace" --cm | tee "$out/checker.out"

# Every online monitor must have stayed silent, pairs must actually have
# crossed the wire, and the epoll transport must have been exercised
# (metrics schema v3, docs/OBSERVABILITY.md).
i=0
while [ "$i" -lt "$n" ]; do
  python3 - "$out/n$i.json" "$i" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snapshot = json.load(f)
metrics = {e["name"]: e for e in snapshot["metrics"]}
def val(name):
    return metrics.get(name, {}).get("value", 0)
node = sys.argv[2]
if val("checker.violations") != 0:
    sys.exit(f"mesh_smoke: node {node}: "
             f"checker.violations = {val('checker.violations')}")
if val("net.wire.bytes_out") == 0:
    sys.exit(f"mesh_smoke: node {node}: no wire bytes sent?")
if val("net.mesh.syscalls_writev") == 0:
    sys.exit(f"mesh_smoke: node {node}: epoll transport not exercised?")
EOF
  i=$((i + 1))
done

# Observability plane: node 0's federation snapshot must cover every node
# (schema v5 `fed.node.<i>.*`, docs/OBSERVABILITY.md "Federation snapshot").
python3 - "$out/fed.json" "$n" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snapshot = json.load(f)
n = int(sys.argv[2])
meta = snapshot.get("meta", {})
if meta.get("schema_version") != 5:
    sys.exit(f"mesh_smoke: fed.json schema_version = {meta.get('schema_version')}, want 5")
if meta.get("kind") != "federation":
    sys.exit(f"mesh_smoke: fed.json kind = {meta.get('kind')}, want federation")
metrics = {e["name"]: e.get("value", 0) for e in snapshot["metrics"]}
if metrics.get("fed.nodes") != n:
    sys.exit(f"mesh_smoke: fed.nodes = {metrics.get('fed.nodes')}, want {n}")
for i in range(n):
    if f"fed.node.{i}.t_ns" not in metrics:
        sys.exit(f"mesh_smoke: fed.json has no snapshot from node {i}")
print(f"fed snapshot ok: covers nodes 0..{n-1}")
EOF

# One rendered frame of the live dashboard over the final snapshot.
"$cim_top" --file "$out/fed.json" --once | tee "$out/cim_top.out"
grep -q "node" "$out/cim_top.out" || {
  echo "mesh_smoke: cim_top --once rendered no node rows" >&2
  exit 1
}

# Merge the per-node traces onto node 0's clock using the heartbeat-derived
# offsets, then re-export through the Perfetto path and require valid JSON
# (docs/TRACE_TOOLS.md "merge").
# shellcheck disable=SC2046
"$cim_trace" merge --offsets "$out/fed.json" \
  $(i=0; while [ "$i" -lt "$n" ]; do printf '%s ' "$out/n$i.jsonl"; i=$((i + 1)); done) \
  -o "$out/merged.jsonl" 2> "$out/merge.log"
cat "$out/merge.log" >&2
# Every node keeps its newest clock_sample in its dumped trace, however many
# events its trace ring evicted, so every input must align.
if grep -q "no clock_sample records" "$out/merge.log"; then
  echo "mesh_smoke: a node's trace has no clock_sample to align with" >&2
  exit 1
fi
"$cim_trace" summarize "$out/merged.jsonl" > "$out/merged.summary"
# shellcheck disable=SC2046
"$cim_trace" merge --offsets "$out/fed.json" --perfetto \
  $(i=0; while [ "$i" -lt "$n" ]; do printf '%s ' "$out/n$i.jsonl"; i=$((i + 1)); done) \
  -o "$out/merged.perfetto.json" 2> /dev/null
python3 - "$out/merged.perfetto.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "empty traceEvents in merged perfetto export"
assert all("ph" in e and "ts" in e and "pid" in e for e in events)
pids = {e["pid"] for e in events if e.get("ph") != "M"}
assert len(pids) > 1, f"merged trace covers only pids {pids} — merge lost nodes?"
print(f"merged perfetto export ok: {len(events)} events, {len(pids)} pids")
EOF

echo "mesh_smoke: OK ($shape($n) merged history causal, zero monitor violations," \
  "fed snapshot + merged trace validated)"
