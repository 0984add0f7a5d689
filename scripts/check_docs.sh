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
  for label in control pair transport_frame stats; do
    if ! grep -q "$label" "$wire_doc"; then
      echo "check_docs: wire type '${label}' is not documented in docs/WIRE.md" >&2
      status=1
    fi
  done
  for sym in kWireVersion kMaxBodyBytes kMaxNestingDepth \
      kTransportVersion2 kMaxStatsEntries kMaxStatsKeyBytes; do
    if ! grep -q "$sym" "$wire_doc"; then
      echo "check_docs: wire constant ${sym} is not documented in docs/WIRE.md" >&2
      status=1
    fi
  done
  if ! grep -Eq "^\| 2–6 \|.*reserved" "$wire_doc"; then
    echo "check_docs: docs/WIRE.md does not mark wire tags 2–6 as reserved" >&2
    status=1
  fi
fi

# The codec encodes only what crosses a link (pairs, transport, control and
# stats frames): it names no intra-system protocol payload, so it lives in
# cim_net and there is no separate cim_wire library.
if grep -Eq "#include \"(protocols|mcs)/" "$root"/src/net/wire.h \
    "$root"/src/net/wire.cpp; then
  echo "check_docs: the wire codec includes an intra-system header:" >&2
  grep -En "#include \"(protocols|mcs)/" "$root"/src/net/wire.h \
      "$root"/src/net/wire.cpp >&2
  status=1
fi
cmake_lists="$root/CMakeLists.txt $root/src $root/tests $root/bench \
  $root/examples $root/tools $root/perfbench"
if grep -rq --include=CMakeLists.txt "cim_wire" $cmake_lists; then
  echo "check_docs: a CMakeLists.txt defines or links cim_wire (the codec is part of cim_net):" >&2
  grep -rn --include=CMakeLists.txt "cim_wire" $cmake_lists >&2
  status=1
fi

# docs/BRIDGE.md is the normative mesh description: it must exist, name
# every join-reject reason the handshake can send (mesh::RejectReason in
# src/mesh/link_session.h),
# and document the mesh counters and the spec keywords, so the protocol
# description cannot silently fall behind the implementation.
bridge_doc="$root/docs/BRIDGE.md"
if [ ! -f "$bridge_doc" ]; then
  echo "check_docs: missing $bridge_doc" >&2
  status=1
else
  for reason in "wire version mismatch" "topology hash mismatch" \
      "not a neighbor" "duplicate join" "session id mismatch" "lost state"; do
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

# A mesh link forms one way: through the kRejoin handshake, fresh links at
# cursor 0 included. Nothing in src/mesh sends the retired hello/join codes,
# and the node declares no join handshake of its own.
if grep -rEq "ControlMsg::k(Hello|Join)\b" "$root"/src/mesh; then
  echo "check_docs: src/mesh names ControlMsg::kHello or kJoin (links form through kRejoin alone):" >&2
  grep -rEn "ControlMsg::k(Hello|Join)\b" "$root"/src/mesh >&2
  status=1
fi
if grep -Eq "dial_join|accept_join" "$root/src/mesh/mesh_node.h"; then
  echo "check_docs: mesh_node.h declares a join handshake (links form through kRejoin alone)" >&2
  status=1
fi
# Every handshake, dialed or answered, runs on the node's loop, so nothing
# in src/mesh blocks on a socket (no SO_RCVTIMEO read, no blocking
# recv_ctrl_fd), and nothing under src connects blocking (tcp_connect is
# the tests' fake peers' helper).
# The join deadline bounds the dials, so MeshConfig has no dial_retries;
# and the dead LinkTransport::kind() label stays gone.
if grep -rEq "SO_RCVTIMEO|recv_ctrl_fd" "$root"/src/mesh; then
  echo "check_docs: src/mesh blocks on a socket (handshakes run on the loop):" >&2
  grep -rEn "SO_RCVTIMEO|recv_ctrl_fd" "$root"/src/mesh >&2
  status=1
fi
if grep -rq "tcp_connect" "$root"/src; then
  echo "check_docs: src names tcp_connect (a node dials with tcp_dial on its loop):" >&2
  grep -rn "tcp_connect" "$root"/src >&2
  status=1
fi
# One reader per socket: a link's TcpLinkTransport owns it from its first
# byte, the handshake included. No second handshake reader or raw control
# send exists, and neither the session nor the node takes an fd.
if [ -e "$root/src/mesh/ctrl_io.h" ]; then
  echo "check_docs: src/mesh/ctrl_io.h exists (the handshake runs on the link's TcpLinkTransport)" >&2
  status=1
fi
if grep -rEq "read_ctrl_on_loop|send_ctrl_fd" "$root"/src; then
  echo "check_docs: src reads or sends a handshake frame on a raw fd (the link's TcpLinkTransport carries it):" >&2
  grep -rEn "read_ctrl_on_loop|send_ctrl_fd" "$root"/src >&2
  status=1
fi
if grep -Eq "int fd[,)]" "$root/src/mesh/link_session.h" \
    "$root/src/mesh/mesh_node.h"; then
  echo "check_docs: link_session.h or mesh_node.h takes an fd (sessions and nodes hold transports):" >&2
  grep -En "int fd[,)]" "$root/src/mesh/link_session.h" \
    "$root/src/mesh/mesh_node.h" >&2
  status=1
fi
if grep -q "dial_retries" "$root/src/mesh/mesh_node.h"; then
  echo "check_docs: MeshConfig declares dial_retries (the join deadline bounds the dials)" >&2
  status=1
fi
if grep -Eq "[^a-z_]kind\(\)" "$root/src/net/link_transport.h"; then
  echo "check_docs: LinkTransport declares kind() (nothing reads it)" >&2
  status=1
fi

# One way into the IS-process: every link end is a net::LinkTransport whose
# deliver callback lands in IsProcess::deliver_from_link. The IS-process is
# no fabric receiver, the transport interface knows no ARQ, and the mesh
# does not compile the simulator's ARQ.
if grep -Eq "class IsProcess[^{]*Receiver|register_in_channel" \
    "$root/src/interconnect/is_process.h"; then
  echo "check_docs: IsProcess is a net::Receiver or maps fabric channels to links (deliver through the link end's callback)" >&2
  status=1
fi
if grep -Eq "#include \"net/reliable_transport.h\"|[^a-z_]arq\(\)" \
    "$root/src/net/link_transport.h"; then
  echo "check_docs: net/link_transport.h includes the simulator's ARQ or declares arq() (ReliableTransport is a LinkTransport)" >&2
  status=1
fi
if grep -rq "#include \"net/reliable_transport.h\"" "$root"/src/mesh; then
  echo "check_docs: src/mesh includes net/reliable_transport.h (the mesh's link end is LinkSession):" >&2
  grep -rn "#include \"net/reliable_transport.h\"" "$root"/src/mesh >&2
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
# A mesh re-dial is a timer on the node's EpollLoop, not a thread.
if grep -rq "re-dial thread" "$root"/docs; then
  echo "check_docs: docs/ describe a re-dial thread (a re-dial is a loop timer):" >&2
  grep -rn "re-dial thread" "$root"/docs >&2
  status=1
fi
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

# The online monitor is fed by the typed mcs::MemoryObserver hooks and the
# trace is an export only: the trace sink declares no listener, the monitor
# decodes no live trace event, and nothing under src/interconnect or
# src/mesh turns a trace sink on by itself (only TraceOptions::enabled does).
if grep -q "set_listener" "$root/src/obs/trace.h"; then
  echo "check_docs: src/obs/trace.h declares a trace listener (the trace is an export)" >&2
  status=1
fi
if grep -Eq "observe\(const (obs::)?TraceEvent" "$root/src/checker/online_monitor.h"; then
  echo "check_docs: chk::OnlineMonitor decodes live trace events (feed it the observer hooks)" >&2
  status=1
fi
if grep -rEq "set_enabled\(true\)" "$root"/src/interconnect "$root"/src/mesh; then
  echo "check_docs: src/interconnect or src/mesh force-enables a trace sink:" >&2
  grep -rEn "set_enabled\(true\)" "$root"/src/interconnect "$root"/src/mesh >&2
  status=1
fi

# One WriteId span fold answers the visibility questions: obs::SpanIndex,
# fed live by mcs::SpanFeed and offline from JSONL. src/stats and its
# value-keyed tracker stay gone, the index decodes no live trace event, and
# outside src/mcs/memory_observer.h nothing in the tree overrides the
# value-keyed hooks (the repository benchmark's fold is their last user).
if [ -e "$root/src/stats" ]; then
  echo "check_docs: src/stats exists (visibility is obs::SpanIndex's; summary and table live in src/obs)" >&2
  status=1
fi
if grep -Eq "observe\(const (obs::)?TraceEvent|index\(const (obs::)?TraceSink" \
    "$root/src/obs/span_index.h"; then
  echo "check_docs: obs::SpanIndex decodes live trace events (feed it through mcs::SpanFeed)" >&2
  status=1
fi
value_hooks="void +([A-Za-z_]+::)?on_(write_issued|apply) *\("
if grep -rEl --include='*.h' --include='*.cpp' "$value_hooks" \
    "$root"/src "$root"/bench "$root"/examples "$root"/tests "$root"/tools \
    | grep -v "/src/mcs/memory_observer.h$" | grep -q .; then
  echo "check_docs: a value-keyed on_write_issued/on_apply override is back (use the typed hooks):" >&2
  grep -rEn --include='*.h' --include='*.cpp' "$value_hooks" \
      "$root"/src "$root"/bench "$root"/examples "$root"/tests "$root"/tools \
      | grep -v "/src/mcs/memory_observer.h:" >&2
  status=1
fi

# A read names its write: the replica keeps each value's WriteId, reads are
# one synchronous McsProcess::read, and the monitor's read hook takes the
# returned WriteId. The capped value -> write map stays gone from the
# checker, and no protocol brings back a callback read handler.
if grep -rEq "kMaxTrackedValues|by_value_order_" "$root"/src/checker; then
  echo "check_docs: src/checker maps values to writes on the live path (a read names its WriteId):" >&2
  grep -rEn "kMaxTrackedValues|by_value_order_" "$root"/src/checker >&2
  status=1
fi
if grep -rq "handle_read" "$root"/src/protocols; then
  echo "check_docs: src/protocols declares handle_read (McsProcess::read serves reads):" >&2
  grep -rn "handle_read" "$root"/src/protocols >&2
  status=1
fi
if ! tr -s '\n' ' ' < "$root/src/checker/online_monitor.h" \
    | grep -Eq "void on_read_done\([^)]*WriteId"; then
  echo "check_docs: OnlineMonitor::on_read_done does not take the read's WriteId" >&2
  status=1
fi

# One causality rule, online and offline: chk::OnlineMonitor decides the kCC
# patterns at each read from causal-past frontiers and labels each witness
# with the session guarantee it breaks. The separate session checker, the
# monitor's ad-hoc rules and its update-applied fact stay gone.
for f in session_checker.h session_checker.cpp; do
  if [ -e "$root/src/checker/$f" ]; then
    echo "check_docs: src/checker/$f exists (session guarantees are OnlineMonitor witness labels)" >&2
    status=1
  fi
done
if grep -rq "SessionChecker" "$root"/src "$root"/examples "$root"/tests "$root"/tools; then
  echo "check_docs: SessionChecker is referenced (use OnlineMonitor::check and its labels):" >&2
  grep -rn "SessionChecker" "$root"/src "$root"/examples "$root"/tests "$root"/tools >&2
  status=1
fi
if grep -rEq "fifo_regress|read_regress|stale_read" "$root"/src "$root"/tools; then
  echo "check_docs: an ad-hoc monitor rule is back (the monitor decides the kCC patterns):" >&2
  grep -rEn "fifo_regress|read_regress|stale_read" "$root"/src "$root"/tools >&2
  status=1
fi
if grep -q "on_update_applied" "$root/src/checker/online_monitor.h"; then
  echo "check_docs: OnlineMonitor declares on_update_applied (it consumes write issued and read done only)" >&2
  status=1
fi

# One apply chain: McsProcess owns the re-entry guard, the wait while an
# upcall is parked and the resume; a protocol only implements apply_next().
# aw-seq and tob-causal share one sequencer core.
chain_copies="simulator\(\)\.post\(|applying_|try_apply|requires synchronous upcall handlers"
if grep -rEq "$chain_copies" "$root"/src/protocols; then
  echo "check_docs: a protocol runs its own apply chain (implement McsProcess::apply_next):" >&2
  grep -rEn "$chain_copies" "$root"/src/protocols >&2
  status=1
fi
for fn in sequence enqueue_delivery; do
  homes=$(grep -rlE "void +([A-Za-z_]+::)?$fn\(" "$root"/src/protocols \
          | sed -E 's/\.(h|cpp)$//' | sort -u | wc -l)
  if [ "$homes" -gt 1 ]; then
    echo "check_docs: $fn is defined in $homes protocol files (the TOB core is protocols/tob_sequencer):" >&2
    grep -rlE "void +([A-Za-z_]+::)?$fn\(" "$root"/src/protocols >&2
    status=1
  fi
done

# One causal hold-back queue: the vector-clock protocols buffer through
# common/causal_queue.h, the one caller of ready_at; the TOB buffer is a FIFO
# queue (deliveries arrive in sequence order).
if grep -rn "ready_at(" "$root"/src/protocols >/dev/null; then
  echo "check_docs: a protocol scans for causally ready updates itself (use CausalQueue::pop_ready):" >&2
  grep -rn "ready_at(" "$root"/src/protocols >&2
  status=1
fi
# One vector-clock causal broadcast: VcReplicaProcess (protocols/update_msg.h)
# ticks, stamps, sends and holds back one update message for ANBKH,
# partial-rep, cbcast-dsm and lazy-batch.
if [ -e "$root"/src/msgpass ]; then
  echo "check_docs: src/msgpass is back (the causal broadcast is protocols/update_msg.h)" >&2
  status=1
fi
if grep -rEq "PartialUpdate|CbcastMsg|CbcastMember" "$root"/src; then
  echo "check_docs: a second causal-broadcast type is back (use TimestampedUpdate / VcReplicaProcess):" >&2
  grep -rEn "PartialUpdate|CbcastMsg|CbcastMember" "$root"/src >&2
  status=1
fi
queues=$(grep -rn "CausalQueue<" "$root"/src \
  | grep -v "^$root/src/protocols/update_msg.h:" || true)
if [ -n "$queues" ]; then
  echo "check_docs: CausalQueue is instantiated outside src/protocols/update_msg.h:" >&2
  printf '%s\n' "$queues" >&2
  status=1
fi
if grep -q "std::map" "$root"/src/protocols/tob_sequencer.h; then
  echo "check_docs: src/protocols/tob_sequencer.h holds a std::map (the delivery buffer is a VecQueue)" >&2
  status=1
fi

# The kCM happens-before fixpoint is incremental: it rebuilds the graph
# (set_edges) only on its CyclicHB failure path, for the Kahn/Tarjan witness,
# and reads-from resolution uses a sorted writer table, not a hash map.
checker_src="$root/src/checker/causal_checker.cpp"
if grep -q "unordered_map" "$checker_src"; then
  echo "check_docs: src/checker/causal_checker.cpp uses std::unordered_map (resolve() sorts the writes)" >&2
  status=1
fi
hb_body="$(sed -n '/CheckResult happens_before(/,/^  }$/p' "$checker_src")"
if [ -z "$hb_body" ] \
    || [ "$(printf '%s\n' "$hb_body" | grep -c "set_edges")" -ne 1 ] \
    || ! printf '%s\n' "$hb_body" | grep -A4 "set_edges" \
        | grep -q "CIM_CHECK(!g.topo_order"; then
  echo "check_docs: the kCM fixpoint (Engine::happens_before) calls set_edges outside its CyclicHB failure path" >&2
  status=1
fi
# Each read is scanned against its clock frontier once per pass: phase A's
# scan seeds the fixpoint's first round (no full-span rescan, scan_all), the
# write index answers through forward-only cursors (no per-read binary
# search, latest_within), and the converged fixpoint checks only
# initial-value reads (its HB flavor of WriteCORead is unreachable).
if grep -q "latest_within" "$checker_src"; then
  echo "check_docs: src/checker/causal_checker.cpp searches a write bucket per read (latest_within); use the VarProcWrites cursor" >&2
  status=1
fi
if printf '%s\n' "$hb_body" | grep -q "scan_all"; then
  echo "check_docs: the kCM fixpoint rescans every read of a process (scan_all); phase A seeds its first round" >&2
  status=1
fi
if grep -q "overwrote it in happens-before" "$checker_src"; then
  echo "check_docs: the kCM fixpoint's final scan checks WriteCORead, which the fixpoint has already excluded" >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "check_docs: OK"
fi
exit "$status"
