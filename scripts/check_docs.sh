#!/bin/sh
# Fails if any src/ module is missing from docs/ARCHITECTURE.md, so the
# architecture document cannot silently fall behind the tree. Wired into
# ctest as the `docs_check` test (see the top-level CMakeLists.txt); run it
# from the repository root.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
doc="$root/docs/ARCHITECTURE.md"

if [ ! -f "$doc" ]; then
  echo "check_docs: missing $doc" >&2
  exit 1
fi

status=0
for dir in "$root"/src/*/; do
  module="$(basename "$dir")"
  # A module counts as documented if ARCHITECTURE.md mentions it backticked,
  # as `module` or inside a path/library name such as `src/module` or
  # `cim_module`.
  if ! grep -Eq "\`(src/)?${module}\`|\`cim_${module}\`" "$doc"; then
    echo "check_docs: src/${module} is not documented in docs/ARCHITECTURE.md" >&2
    status=1
  fi
done

# The documented library table must also stay complete: every cim_* library
# defined in the build should appear.
for lib in $(grep -rhoE "add_library\(cim_[a-z_]+" "$root"/src/*/CMakeLists.txt \
    | sed 's/add_library(//' | sort -u); do
  if ! grep -q "\`${lib}\`" "$doc"; then
    echo "check_docs: library ${lib} is not documented in docs/ARCHITECTURE.md" >&2
    status=1
  fi
done

# The reliable FIFO channel has one sequence core with two drivers; the
# architecture document must show it.
for word in ArqCore ReliableTransport LinkSession; do
  if ! grep -q "$word" "$doc"; then
    echo "check_docs: '${word}' is not documented in docs/ARCHITECTURE.md" >&2
    status=1
  fi
done

# docs/WIRE.md is the normative wire-format description: it must exist, and
# every wire type label the codec knows (src/net/wire.cpp) must be described
# in it, so the layout tables cannot silently fall behind the enum.
wire_doc="$root/docs/WIRE.md"
if [ ! -f "$wire_doc" ]; then
  echo "check_docs: missing $wire_doc" >&2
  status=1
else
  for label in control pair vc_update tob_publish tob_deliver partial_update \
      cbcast transport_frame stats; do
    if ! grep -q "$label" "$wire_doc"; then
      echo "check_docs: wire type '${label}' is not documented in docs/WIRE.md" >&2
      status=1
    fi
  done
  for sym in kWireVersion kMaxBodyBytes kMaxClockEntries kMaxNestingDepth \
      kTransportVersion2 kMaxStatsEntries kMaxStatsKeyBytes; do
    if ! grep -q "$sym" "$wire_doc"; then
      echo "check_docs: wire constant ${sym} is not documented in docs/WIRE.md" >&2
      status=1
    fi
  done
fi

# docs/BRIDGE.md is the normative mesh description: it must exist, name
# every join-reject reason the handshake can send (src/mesh/mesh_node.cpp),
# and document the mesh counters and the spec keywords, so the protocol
# description cannot silently fall behind the implementation.
bridge_doc="$root/docs/BRIDGE.md"
if [ ! -f "$bridge_doc" ]; then
  echo "check_docs: missing $bridge_doc" >&2
  status=1
else
  for reason in "wire version mismatch" "topology hash mismatch" \
      "not a neighbor" "duplicate join" "stale session id"; do
    if ! grep -q "$reason" "$bridge_doc"; then
      echo "check_docs: reject reason '${reason}' is not documented in docs/BRIDGE.md" >&2
      status=1
    fi
  done
  for word in "nodes" "edge" "base_port" "done" "bye" "net.mesh" \
      "topology hash" "writev" "heartbeat" "rejoin" "replay journal" \
      "--resume" "backoff" "StatsFrame" "--stats-interval" "--fed-metrics" \
      "cim_top" "fed.node" "stats_parent"; do
    if ! grep -q -- "$word" "$bridge_doc"; then
      echo "check_docs: '${word}' is not documented in docs/BRIDGE.md" >&2
      status=1
    fi
  done
  # The threading model: one hot thread per node, and the journal bound
  # pauses the engine instead of parking a thread.
  for phrase in "one hot thread per process" "engine stops stepping" \
      "end of the loop iteration"; do
    if ! grep -q -- "$phrase" "$bridge_doc"; then
      echo "check_docs: '${phrase}' is not documented in docs/BRIDGE.md" >&2
      status=1
    fi
  done
fi

# A mesh node is one thread, run()'s caller running its EpollLoop: the
# architecture document shows the node's threads, src/mesh starts no thread
# of its own, and the loop, transports, sessions and spill journal under
# src/net and src/mesh are single-thread objects that take no lock.
if ! grep -q "### Mesh node threads" "$doc"; then
  echo "check_docs: docs/ARCHITECTURE.md does not show the mesh node threads" >&2
  status=1
fi
if grep -rEq "std::(mutex|condition_variable|lock_guard|unique_lock)" \
    "$root"/src/net "$root"/src/mesh; then
  echo "check_docs: src/net or src/mesh takes a lock (the deployed path is single-thread):" >&2
  grep -rEn "std::(mutex|condition_variable|lock_guard|unique_lock)" \
    "$root"/src/net "$root"/src/mesh >&2
  status=1
fi
if grep -rq "std::thread" "$root"/src/mesh; then
  echo "check_docs: src/mesh uses std::thread (a node runs on its loop)" >&2
  status=1
fi

# docs/CHECKER.md is the normative description of the columnar history
# store and the sparse constraint engine: it must exist, name every bad
# pattern the checker can report (src/checker/causal_checker.h), and
# document the storage/engine pieces and tuning knobs, so the checker
# description cannot silently fall behind the implementation.
checker_doc="$root/docs/CHECKER.md"
if [ ! -f "$checker_doc" ]; then
  echo "check_docs: missing $checker_doc" >&2
  status=1
else
  for pattern in CyclicCO ThinAirRead WriteCOInitRead WriteCORead CyclicHB \
      WriteHBInitRead CyclicCF ResidualLimit; do
    if ! grep -q "$pattern" "$checker_doc"; then
      echo "check_docs: bad pattern '${pattern}' is not documented in docs/CHECKER.md" >&2
      status=1
    fi
  done
  for word in SparseGraph HistoryBuilder VarProcWrites bytes_per_op \
      struct_bytes_per_op residual_budget kCC kCM kCCv \
      BENCH_checker.json CIM_CHECKER_BENCH_OPS; do
    if ! grep -q "$word" "$checker_doc"; then
      echo "check_docs: '${word}' is not documented in docs/CHECKER.md" >&2
      status=1
    fi
  done
fi

# docs/FAULTS.md owns the fault-injection model and the recovery
# invariants; the ARQ core (src/net/arq_core.h), the socket-level chaos
# hooks (src/net/fault_inject.h) and the chaos smoke must be described
# there, so a new hook cannot ship undocumented.
faults_doc="$root/docs/FAULTS.md"
if [ ! -f "$faults_doc" ]; then
  echo "check_docs: missing $faults_doc" >&2
  status=1
else
  for word in ArqCore FaultHooks max_write_bytes fail_writes_after \
      fail_reads_after stall_writes dispatch_delay_us mesh_chaos_smoke; do
    if ! grep -q "$word" "$faults_doc"; then
      echo "check_docs: '${word}' is not documented in docs/FAULTS.md" >&2
      status=1
    fi
  done
fi

if [ "$status" -eq 0 ]; then
  echo "check_docs: OK"
fi
exit "$status"
