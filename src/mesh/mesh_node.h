// MeshNode: one causal memory system of an n-process TCP federation
// (docs/BRIDGE.md). tools/cim_bridge wraps exactly this class; it is a
// library so tests can assemble meshes in-process (tests/bridge_mesh_test).
//
// Life of a node:
//
//   join()  — form the tree. The node listens on base_port + node_id, dials
//             every lower-id neighbor, then accepts every higher-id one
//             (deadlock-free by induction on node ids), exchanging
//             hello/join ControlMsg frames on the raw blocking fd: hello
//             carries the node id + wire version, join carries the node id +
//             the canonical topology hash, so processes launched with
//             diverging spec files or mismatched builds refuse each other
//             (kJoinReject) instead of forming a broken mesh. With
//             `resume`, join() instead loads the spill journal written by
//             the crashed incarnation and skips the handshakes entirely —
//             links re-form through the per-edge kRejoin handshake below.
//   run()   — drive the workload. Builds a single-system Federation with one
//             external link per neighbor (they share the node's IS-process,
//             which gives split-horizon forwarding across the tree), wraps
//             each socket in a crash-tolerant LinkSession (mesh/link_session.h)
//             on one shared EpollLoop, runs that loop on the calling thread
//             — the uniform workload in the simulator engine, the sockets,
//             the per-link done/bye convergecast — until the whole tree is
//             drained. Blocks until then; returns the node's final counts.
//
// Threads (docs/ARCHITECTURE.md "Mesh node threads"): one, run()'s caller,
// which runs the node's EpollLoop. Each iteration the loop dispatches the
// ready sockets (a delivered pair is a plain simulator post), runs one
// bounded batch of engine events (paused while any session's journal is at
// its bound), checks the convergecast, and flushes every peer's send queue
// with one writev. The stats plane and the heartbeats are loop timers; the
// listener is a loop handler, and every rejoin — answered or dialed — is a
// nonblocking exchange on the loop.
//
// Robustness (the PR-7 tentpole; docs/BRIDGE.md "Failure behavior"):
// each edge is a LinkSession — seq/ack frames, a replay journal, heartbeats
// with a liveness timeout, reconnect with backoff and the kRejoin handshake.
// A silent or crashed peer degrades its link (bounded buffering +
// backpressure, surfaced as net.mesh.<peer>.{down,hb_miss,resumes} gauges)
// instead of killing the node; the node's listener stays open for the whole
// run so crashed higher-id dialers can rejoin: the loop accepts, reads each
// connection's one control frame under its own budget, answers kRejoin and
// refuses everything else (a stale session, a kHello mid-run). Every
// session event spills to a write-ahead journal (mesh/spill.h) and the
// history streams to disk as it records, so `cim_bridge --resume` restarts
// a kill -9'd process with zero duplicated and zero lost pair deliveries
// and a checkable merged history.
//
// Termination (docs/BRIDGE.md "Termination"): done on link L is sent once
// the local workload finished, the engine is idle, and every *other* link M
// is drained (peer's done(M) received and the pairs applied on M match its
// announced count) — only then is the pair count of L final, because
// forwards of pairs from M contribute to L. Leaves therefore fire
// immediately and dones converge across the tree; bye(L) answers a drained
// done(L), and the node stops when every link has seen both byes. Induction
// on the tree structure (the same induction as the paper's Corollary 1)
// gives progress.
//
// Value ranges: node i of generation g writes values in
// [i * 1'000'000 + g * 200'000, ...), so the merged per-process histories
// keep the checker's value-identifies-write premise across restarts and
// `cat *.hist` is directly checkable.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "interconnect/federation.h"
#include "interconnect/topology.h"
#include "mesh/link_session.h"
#include "mesh/spill.h"
#include "net/epoll_loop.h"
#include "net/fault_inject.h"
#include "net/tcp_link.h"
#include "workload/generator.h"

namespace cim::mesh {

struct MeshConfig {
  std::size_t node_id = 0;
  isc::Topology topo;
  /// Node i listens on base_port + i; dialers derive peer ports the same way.
  std::uint16_t base_port = 0;
  std::string host = "127.0.0.1";
  std::uint16_t procs = 4;
  std::size_t ops = 25;
  std::uint64_t seed = 7;
  /// Overall budget for the accept side of join(); a missing or dead peer
  /// surfaces as a clean error after this long.
  int join_timeout_ms = 10'000;
  /// Dial retries (100ms apart) while a lower-id peer is not yet listening.
  int dial_retries = 100;
  net::TcpLinkConfig link;
  bool trace = false;

  // ---- crash tolerance (docs/BRIDGE.md "Failure behavior") -----------------
  int hb_interval_ms = 100;
  int liveness_timeout_ms = 2000;
  /// Continuously-degraded budget per link before the node gives up
  /// (0 = never: degrade and backpressure forever).
  int degraded_timeout_ms = 0;
  int backoff_initial_ms = 50;
  int backoff_max_ms = 1000;
  int reconnect_attempts = 40;
  /// Budget for the final drain (every sent frame acked) after the
  /// convergecast completes.
  int drain_timeout_ms = 10'000;
  /// Write-ahead spill journal path ("" = no crash spill, no --resume).
  std::string state_path;
  /// Restart from state_path after a kill -9 (docs/BRIDGE.md).
  bool resume = false;
  /// Stream the history to this file as it records (crash-durable; appends
  /// on resume). "" = off.
  std::string history_path;
  /// Borrowed chaos switchboard for tests/bench (docs/FAULTS.md).
  net::FaultHooks* faults = nullptr;

  // ---- stats plane (docs/BRIDGE.md "Stats aggregation") --------------------
  /// Cadence of the per-node StatsFrame sent up the tree toward node 0 (and
  /// of node 0's aggregated snapshot refresh, and of the clock_sample trace
  /// events `cim_trace merge` aligns timelines with). 0 = stats plane off.
  int stats_interval_ms = 0;
  /// Node 0 only: path of the federation-wide aggregated metrics JSON,
  /// atomically refreshed every cadence tick and finalized after the run
  /// ("" = off). cim_top tails this file for the live view.
  std::string fed_metrics_path;
};

struct MeshResult {
  bool ok = false;
  std::uint64_t ops_done = 0;
  std::uint64_t pairs_sent = 0;
  std::uint64_t pairs_received = 0;
  std::uint64_t violations = 0;
};

class MeshNode final : private net::EpollLoop::FdHandler {
 public:
  explicit MeshNode(MeshConfig config);
  ~MeshNode() override;
  MeshNode(const MeshNode&) = delete;
  MeshNode& operator=(const MeshNode&) = delete;

  /// Form every incident link of the tree (or, with `resume`, load the spill
  /// journal and defer link formation to the per-edge rejoin). False on
  /// failure (error() says why): join timeout, handshake mismatch, peer
  /// death mid-handshake, unusable journal.
  bool join();

  /// Run the workload and the termination convergecast; blocks until the
  /// mesh is drained or a link fails permanently. Requires a successful
  /// join().
  MeshResult run();

  const std::string& error() const { return error_; }

  /// Valid after run() started building it (use from run()'s caller only
  /// after run() returned: history/metrics/trace dumps).
  isc::Federation& federation() { return *fed_; }

  std::size_t degree() const { return neighbors_.size(); }
  /// Neighbor node id behind local link `e` (ascending neighbor order).
  std::size_t neighbor(std::size_t e) const { return neighbors_[e]; }
  /// Session of local link `e` (valid once sessions_ready(), until
  /// destruction).
  LinkSession& session(std::size_t e) { return *sessions_[e]; }
  /// run() has built and started every link session: session(e) is safe to
  /// call from other threads (tests watch gauges mid-run through this).
  bool sessions_ready() const {
    return sessions_ready_.load(std::memory_order_acquire);
  }
  /// Restart generation (0 on a fresh start, prior + 1 on resume).
  std::uint32_t generation() const { return generation_; }

 private:
  bool handshake_dial(int fd, std::size_t peer);
  /// Accept loop helper: validates one inbound handshake; returns the
  /// neighbor slot or npos (rejected / dead peer — keep accepting).
  std::size_t handshake_accept(int fd);
  bool load_resume_state();
  std::uint64_t edge_session_id(std::size_t peer) const;
  /// The listener on the loop: accept every queued connection and read its
  /// one control frame on the loop.
  void on_ready(std::uint32_t events) override;
  /// Answer the first frame of a connection accepted mid-run.
  void answer_rejoin(int fd, const net::wire::ControlMsg& msg);

  MeshConfig cfg_;
  std::vector<std::size_t> neighbors_;  // ascending node ids
  std::vector<int> fds_;                // per neighbor slot, -1 until joined
  std::string error_;
  int listener_ = -1;                   // stays open for the whole run
  std::uint32_t generation_ = 0;
  SpillState restored_;                 // loaded journal (resume only)

  net::EpollLoop loop_;
  SpillJournal spill_;
  std::unique_ptr<isc::Federation> fed_;
  std::vector<std::unique_ptr<LinkSession>> sessions_;
  std::unique_ptr<std::ofstream> history_;
  std::atomic<bool> sessions_ready_{false};
};

}  // namespace cim::mesh
