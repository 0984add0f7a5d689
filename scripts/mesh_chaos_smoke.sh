#!/usr/bin/env bash
# Crash-tolerance smoke (docs/BRIDGE.md "Failure behavior", docs/FAULTS.md):
# a btree(4) cim_bridge mesh survives a kill -9 plus a SIGSTOP, and the
# merged history is still causally consistent with zero duplicated and zero
# lost pair deliveries.
#
#   - node 2 is SIGSTOPped mid-run: its neighbor (node 0) must flip the link
#     degraded (net.mesh.2.hb_miss rises) without failing, and recover after
#     SIGCONT.
#   - node 1 is kill -9'd mid-run and relaunched with --resume --state: the
#     spill journal restores its cursors, the kRejoin handshake replays the
#     unacked tail, and the whole mesh drains.
#
# Both signals land mid-workload on any host: the run is sized to outlast
# them (OPS), and they fire once node 0 holds a stats snapshot from node 2
# (so link 0-2 has formed) and node 1's history shows progress (KILL_AT
# lines), not after a fixed delay — a node that finished its workload first
# could no longer --resume (its termination had begun).
#
# usage: scripts/mesh_chaos_smoke.sh [BUILD_DIR] [BASE_PORT] [OUT_DIR]
#
# OUT_DIR keeps per-node logs, histories, journals, and metrics for artifact
# upload on failure; default is a temp dir removed on success. Wired into CI
# as the `mesh-chaos-smoke` job.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
base_port="${2:-9617}"
out="${3:-}"

bridge="$build/tools/cim_bridge"
checker="$build/examples/trace_checker"
cim_top="$build/tools/cim_top"
for bin in "$bridge" "$checker" "$cim_top"; do
  if [ ! -x "$bin" ]; then
    echo "mesh_chaos_smoke: missing $bin (build the project first)" >&2
    exit 1
  fi
done

if [ -z "$out" ]; then
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
fi
mkdir -p "$out"

ops=5000      # per app process: 20 000 ops per node
kill_at=500   # node 1's history lines (completed ops) before the signals

# Liveness is tuned low so a 1.2s SIGSTOP is several missed heartbeats; the
# reconnect budget is generous because node 3 re-dials a dead listener until
# node 1's resumed incarnation opens it again.
launch() {
  local node="$1" log="$2"
  shift 2
  "$bridge" --node "$node" --shape btree --n 4 --base-port "$base_port" \
    --procs 4 --ops "$ops" --seed 11 \
    --hb-interval 50 --liveness 500 --backoff 50 --backoff-max 200 \
    --reconnect-attempts 200 --join-timeout 30000 --drain-timeout 30000 \
    --state "$out/n$node.state" --history "$out/n$node.hist" \
    --metrics "$out/n$node.json" --stats-interval 50 "$@" > "$log" 2>&1 &
}

pids=()
for i in 0 1 2 3; do
  if [ "$i" -eq 0 ]; then
    launch "$i" "$out/n$i.log" --fed-metrics "$out/fed.json"
  else
    launch "$i" "$out/n$i.log"
  fi
  pids[$i]=$!
done

# Every node has started once its spill journal exists (join() opens it
# before the edges form); the history wait below is what puts the signals
# mid-run rather than mid-join.
deadline=$((SECONDS + 15))
for i in 0 1 2 3; do
  while [ ! -s "$out/n$i.state" ]; do
    if [ "$SECONDS" -ge "$deadline" ]; then
      echo "mesh_chaos_smoke: node $i never started its journal" >&2
      cat "$out"/n*.log >&2
      exit 1
    fi
    sleep 0.02
  done
done

# Node 2's only link is 0-2, so a stats snapshot from node 2 in node 0's
# fed.json proves that link is up: the SIGSTOP below must silence a formed
# link, or node 0 has no heartbeats to miss.
while ! grep -qs '"fed.node.2.t_ns"' "$out/fed.json"; do
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "mesh_chaos_smoke: node 0's fed.json never held a snapshot from" \
      "node 2 (link 0-2 did not form)" >&2
    cat "$out"/n*.log >&2
    exit 1
  fi
  sleep 0.005
done

# Then wait for node 1's workload to be under way: its history streams one
# line per completed op.
lines() { if [ -f "$1" ]; then wc -l < "$1"; else echo 0; fi; }
while [ "$(lines "$out/n1.hist")" -lt "$kill_at" ]; do
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "mesh_chaos_smoke: node 1 never completed $kill_at ops" >&2
    cat "$out"/n*.log >&2
    exit 1
  fi
  sleep 0.005
done

# Chaos phase 1 — silent peer: node 2 goes quiet without dying. Node 0 must
# degrade the 0-2 link (backpressure, not failure) and keep the rest of the
# tree healthy.
kill -STOP "${pids[2]}"

# Chaos phase 2 — crash: node 1 dies without warning, taking its sockets to
# node 0 and node 3 with it, and comes back as generation 1 from its journal.
kill -KILL "${pids[1]}"
wait "${pids[1]}" || true  # reap the corpse (exit 137 is the point)
if [ "$(lines "$out/n1.hist")" -ge $((4 * ops)) ]; then
  echo "mesh_chaos_smoke: node 1 finished its workload before the kill" >&2
  exit 1
fi
sleep 1.2                  # node 0 accumulates hb_miss on the stopped link
launch 1 "$out/n1.resume.log" --resume
pids[1]=$!

kill -CONT "${pids[2]}"

status=0
for i in 0 1 2 3; do
  wait "${pids[$i]}" || status=$?
done
if [ "$status" -ne 0 ]; then
  echo "mesh_chaos_smoke: a mesh process failed (status $status); logs:" >&2
  cat "$out"/n*.log >&2
  exit 1
fi
grep -q " gen 1:" "$out/n1.resume.log" || {
  echo "mesh_chaos_smoke: resumed node 1 did not report generation 1:" >&2
  cat "$out/n1.resume.log" >&2
  exit 1
}

# Merge the histories (node 1's file holds both incarnations — the stream
# appends on resume). Only the very last line of the crashed incarnation can
# be torn by the kill, and a torn line means the op's pair never hit a
# socket, so dropping it cannot hide a propagated value.
: > "$out/merged.trace"
for i in 0 1 2 3; do
  awk 'NR > 1 { print prev }
       { prev = $0 }
       END { if (prev ~ /^[rw] [0-9]+ [0-9]+ [0-9]+ [0-9]+$/) print prev }' \
    "$out/n$i.hist" >> "$out/merged.trace"
done
"$checker" "$out/merged.trace" --cm | tee "$out/checker.out"

# The stats plane must have survived the chaos too: node 0's federation
# snapshot covers every node, and node 1's latest frame carries its resumed
# incarnation (generation 1) — stats frames from the dead generation cannot
# roll the view back (newest t_ns wins, and CLOCK_MONOTONIC is system-wide).
python3 - "$out/fed.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snapshot = json.load(f)
metrics = {e["name"]: e.get("value", 0) for e in snapshot["metrics"]}
if metrics.get("fed.nodes") != 4:
    sys.exit(f"mesh_chaos_smoke: fed.nodes = {metrics.get('fed.nodes')}, want 4")
for i in range(4):
    if f"fed.node.{i}.t_ns" not in metrics:
        sys.exit(f"mesh_chaos_smoke: fed.json has no snapshot from node {i}")
if metrics.get("fed.node.1.generation") != 1:
    sys.exit("mesh_chaos_smoke: fed snapshot never saw node 1's resumed "
             f"generation (got {metrics.get('fed.node.1.generation')})")
if metrics.get("fed.node.0.peer.1.resumes", 0) < 1:
    sys.exit("mesh_chaos_smoke: fed snapshot shows no reconnect on the "
             "crashed edge 0-1")
print("fed snapshot ok: all 4 nodes covered, node 1 at generation 1, "
      "reconnect visible on edge 0-1")
EOF

# The chaos run must be renderable: one cim_top frame over the final
# snapshot, with the reconnect visible in the per-peer health table.
"$cim_top" --file "$out/fed.json" --once | tee "$out/cim_top.out"
grep -q "reconn" "$out/cim_top.out" || {
  echo "mesh_chaos_smoke: cim_top --once rendered no per-peer table" >&2
  exit 1
}

# Gauge assertions (metrics schema v5, docs/OBSERVABILITY.md): the SIGSTOP
# was observed and recovered from, the crash was rejoined, every pair one
# side sent was delivered exactly once on the other across the kill and the
# replay (the core contract), and the online monitor stayed silent without
# turning tracing on.
python3 - "$out" <<'EOF'
import json, sys
out = sys.argv[1]
def gauges(node):
    with open(f"{out}/n{node}.json") as f:
        snapshot = json.load(f)
    return {e["name"]: e.get("value", 0) for e in snapshot["metrics"]}
m = {i: gauges(i) for i in range(4)}
def val(node, name):
    return m[node].get(name, 0)

if val(0, "net.mesh.2.hb_miss") == 0:
    sys.exit("mesh_chaos_smoke: node 0 never noticed the SIGSTOPped node 2")
if val(0, "net.mesh.2.down") != 0:
    sys.exit("mesh_chaos_smoke: node 0's link to node 2 did not recover")
if val(0, "net.mesh.1.resumes") == 0:
    sys.exit("mesh_chaos_smoke: node 0 never resumed its session with the "
             "restarted node 1")
for a, b in [(0, 1), (0, 2), (1, 3)]:
    for x, y in [(a, b), (b, a)]:
        sent = val(x, f"net.mesh.{y}.pairs_sent")
        got = val(y, f"net.mesh.{x}.pairs_delivered")
        if sent == 0:
            sys.exit(f"mesh_chaos_smoke: node {x} sent no pairs to {y}?")
        if sent != got:
            sys.exit(f"mesh_chaos_smoke: edge {x}->{y}: {sent} pairs sent "
                     f"but {got} delivered (dup or loss across the crash)")
for i in range(4):
    if val(i, "checker.violations") != 0:
        sys.exit(f"mesh_chaos_smoke: node {i}: online monitor violations")
    # The monitor runs on the observer hooks: an untraced node records no
    # trace event at all.
    if "trace.dropped" not in m[i]:
        sys.exit(f"mesh_chaos_smoke: node {i}: no trace gauges in its metrics")
    traced = {k: v for k, v in m[i].items()
              if (k.startswith("trace.events.") or k == "trace.dropped") and v}
    if traced:
        sys.exit(f"mesh_chaos_smoke: node {i} traced without --trace: {traced}")
EOF

echo "mesh_chaos_smoke: OK (kill -9 + --resume and SIGSTOP/SIGCONT survived;" \
     "merged history causal, zero dup, zero loss)"
