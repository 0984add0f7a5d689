// MeshNode: one causal memory system of an n-process TCP federation
// (docs/BRIDGE.md). tools/cim_bridge wraps exactly this class; it is a
// library so tests can assemble meshes in-process (tests/bridge_mesh_test).
//
// Life of a node:
//
//   join()  — build the node and form the tree. It validates the config,
//             opens the spill journal, builds a single-system Federation
//             with one external link per neighbor (they share the node's
//             IS-process, which gives split-horizon forwarding across the
//             tree) and one socketless crash-tolerant LinkSession
//             (mesh/link_session.h) per edge, then listens on
//             base_port + node_id and runs the node's EpollLoop until every
//             session has connected. Every edge forms through one
//             handshake, the kRejoin exchange {node id, session id,
//             delivered cursor} (mesh/ctrl_io.h): the higher id dials, the
//             lower id answers. A fresh node is a node restored from an
//             empty journal, so its edges form as rejoins at cursor 0; with
//             `resume`, the journal written by the crashed incarnation
//             supplies the cursors. The session id hashes the wire version,
//             the canonical topology hash and the seed, so processes of
//             mismatched builds, diverging spec files or different seeds
//             refuse each other (kJoinReject) instead of forming a broken
//             mesh. So do two ends whose delivery cursors show that one of
//             them restarted without its journal, and a fresh start refuses
//             to truncate an unfinished run's journal. A failed session
//             fails join() by name; so does the join_timeout_ms deadline (a
//             loop timer) on a fresh node. A resumed node's links formed
//             before: past the deadline it runs with the missing links
//             down, and they re-form like after any outage.
//   run()   — drive the workload on the same loop, on the calling thread —
//             the uniform workload in the simulator engine, the sockets,
//             the per-link done/bye convergecast — until the whole tree is
//             drained. Blocks until then; returns the node's final counts.
//
// Threads (docs/ARCHITECTURE.md "Mesh node threads"): one, join()'s and
// run()'s caller, which runs the node's EpollLoop; nothing here blocks
// outside its epoll_wait. Each iteration of run() the loop dispatches the
// ready sockets (a delivered pair is a plain simulator post), runs one
// bounded batch of engine events (paused while any session's journal is at
// its bound), checks the convergecast, and flushes every peer's send queue
// with one writev. The stats plane and the heartbeats are loop timers; the
// listener is a loop handler, and every handshake, answered or dialed, is a
// nonblocking exchange on the loop.
//
// Robustness (docs/BRIDGE.md "Failure behavior"): each edge is a
// LinkSession — seq/ack frames, a replay journal, heartbeats with a
// liveness timeout, reconnect with backoff and the kRejoin handshake. A
// silent or crashed peer degrades its link (bounded buffering +
// backpressure, surfaced as net.mesh.<peer>.{down,hb_miss,resumes} gauges)
// instead of killing the node; the node's listener stays open for the whole
// run so crashed higher-id dialers can rejoin: the loop accepts, reads each
// connection's one control frame under its own budget, and hands a kRejoin
// to its session or refuses it (not a neighbor, session id mismatch). Every
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
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "interconnect/federation.h"
#include "interconnect/topology.h"
#include "mesh/link_session.h"
#include "mesh/spill.h"
#include "mesh/stats_plane.h"
#include "net/epoll_loop.h"
#include "net/fault_inject.h"
#include "net/tcp_link.h"
#include "workload/generator.h"

namespace cim::mesh {

/// The session id both ends of edge {a, b} compute: a hash of the wire
/// version, the topology's canonical hash, the seed and the two node ids.
/// It is the whole join-time check — a peer of another build, spec file or
/// seed presents another id and is refused.
std::uint64_t edge_session_id(const isc::Topology& topo, std::uint64_t seed,
                              std::size_t a, std::size_t b);

struct MeshConfig {
  std::size_t node_id = 0;
  isc::Topology topo;
  /// Node i listens on base_port + i; dialers derive peer ports the same way.
  std::uint16_t base_port = 0;
  std::string host = "127.0.0.1";
  std::uint16_t procs = 4;
  std::size_t ops = 25;
  std::uint64_t seed = 7;
  /// Overall budget for a fresh node's join(): every incident edge must
  /// form within it, dial retries included; a missing or dead peer surfaces
  /// as an error naming it after this long. A resumed node stops waiting
  /// then and runs with the missing links down.
  int join_timeout_ms = 10'000;
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

  /// Build the node (with `resume`, from the spill journal) and form every
  /// incident link of the tree. False on failure (error() says why): an
  /// invalid config, an unusable journal (or, without `resume`, a
  /// resumable one), a refused or failed link, a fresh node's join timeout.
  bool join();

  /// Run the workload and the termination convergecast; blocks until the
  /// mesh is drained or a link fails permanently. Requires a successful
  /// join().
  MeshResult run();

  const std::string& error() const { return error_; }

  /// Valid after a successful join() (use from run()'s caller only after
  /// run() returned: history/metrics/trace dumps).
  isc::Federation& federation() { return *fed_; }

  std::size_t degree() const { return neighbors_.size(); }
  /// Neighbor node id behind local link `e` (ascending neighbor order).
  std::size_t neighbor(std::size_t e) const { return neighbors_[e]; }
  /// Session of local link `e` (valid once sessions_ready(), until
  /// destruction).
  LinkSession& session(std::size_t e) { return *sessions_[e]; }
  /// join() succeeded, so every link session exists (and, unless resumed
  /// past the join deadline, has connected): other threads may now call
  /// session(e) and read its any-thread
  /// accessors (tests and perfbench watch gauges mid-run through this).
  bool sessions_ready() const {
    return sessions_ready_.load(std::memory_order_acquire);
  }
  /// Restart generation (0 on a fresh start, prior + 1 on resume).
  std::uint32_t generation() const { return restored_.generation; }

 private:
  /// Per link, what the convergecast knows of the peer. Deliveries fill it
  /// from the link's first frame on, join() included.
  struct PeerProgress {
    bool done = false;          // its done arrived
    bool bye = false;           // its bye arrived
    std::uint64_t pairs = 0;    // the final pair count its done announced
    std::uint64_t applied = 0;  // its pairs applied here, across generations
    std::size_t isp_link = 0;   // the IS-process's index of the link
  };

  bool load_resume_state();
  /// Name the first permanently failed link in error(); false if none.
  bool link_failed();
  /// Session `e`'s delivery: a done/bye, a stats frame or a pair.
  void deliver(std::size_t e, net::MessagePtr msg);
  /// Send a stats snapshot toward node 0.
  void relay_stats(std::unique_ptr<net::wire::StatsFrame> frame);
  /// The listener on the loop: accept every queued connection and read its
  /// handshake on the loop.
  void on_ready(std::uint32_t events) override;
  /// Hand an accepted connection's handshake to its session, or refuse it.
  void answer_rejoin(int fd, const net::wire::ControlMsg& msg);

  MeshConfig cfg_;
  std::vector<std::size_t> neighbors_;  // ascending node ids
  std::string error_;
  int listener_ = -1;                   // stays open for the whole run
  /// The state this incarnation starts from: empty on a fresh start, the
  /// crashed incarnation's journal (generation + 1) on resume.
  SpillState restored_;

  net::EpollLoop loop_;
  SpillJournal spill_;
  std::unique_ptr<isc::Federation> fed_;
  std::vector<std::unique_ptr<LinkSession>> sessions_;
  std::vector<PeerProgress> peers_;
  std::unique_ptr<std::ofstream> history_;
  std::atomic<bool> sessions_ready_{false};

  // Stats plane (docs/BRIDGE.md "Stats aggregation").
  FedAggregator agg_;                   // node 0 only
  std::size_t stats_parent_e_ = isc::Topology::npos;
  std::deque<std::unique_ptr<net::wire::StatsFrame>> stats_relay_;
};

}  // namespace cim::mesh
