// MeshNode: one causal memory system of an n-process TCP federation
// (docs/BRIDGE.md). tools/cim_bridge wraps exactly this class; it is a
// library so tests can assemble meshes in-process (tests/bridge_mesh_test).
//
// Life of a node:
//
//   join()  — form the tree. The node listens on base_port + node_id and
//             runs its EpollLoop until every incident edge has formed: it
//             dials every lower-id neighbor (a refused connect retries on a
//             loop timer) and answers every higher-id one that connects, all
//             at once, each connection under its own frame budget. Each edge
//             exchanges hello/join ControlMsg frames (mesh/ctrl_io.h): hello
//             carries the node id + wire version, join carries the node id +
//             the canonical topology hash, so processes launched with
//             diverging spec files or mismatched builds refuse each other
//             (kJoinReject) instead of forming a broken mesh. The
//             join_timeout_ms deadline is a loop timer. With `resume`,
//             join() instead loads the spill journal written by the crashed
//             incarnation and skips the handshakes entirely — links re-form
//             through the per-edge kRejoin handshake below.
//   run()   — drive the workload. Builds a single-system Federation with one
//             external link per neighbor (they share the node's IS-process,
//             which gives split-horizon forwarding across the tree), wraps
//             each socket in a crash-tolerant LinkSession (mesh/link_session.h)
//             on one shared EpollLoop, runs that loop on the calling thread
//             — the uniform workload in the simulator engine, the sockets,
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
// listener is a loop handler, and every handshake — join or rejoin,
// answered or dialed — is a nonblocking exchange on the loop.
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
  /// Overall budget for join(): every incident edge must form within it,
  /// dial retries included; a missing or dead peer surfaces as a clean
  /// error after this long.
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
  /// run() has built and started every link session: other threads may now
  /// call session(e) and read its any-thread accessors (tests and perfbench
  /// watch gauges mid-run through this).
  bool sessions_ready() const {
    return sessions_ready_.load(std::memory_order_acquire);
  }
  /// Restart generation (0 on a fresh start, prior + 1 on resume).
  std::uint32_t generation() const { return generation_; }

 private:
  bool load_resume_state();
  std::uint64_t edge_session_id(std::size_t peer) const;
  /// join() on the loop: dial lower-id neighbor slot `e` and run the
  /// dialer's side of its handshake.
  void dial_join(std::size_t e);
  /// Why the reply to slot `e`'s join dial fails the join ("" if it does
  /// not); answers a diverging topology hash with a reject on `fd`.
  std::string join_reply_error(std::size_t e, int fd,
                               const net::wire::ControlMsg& hello,
                               const net::wire::ControlMsg& join);
  /// Slot `e`'s handshake finished on `fd`; stops join()'s loop once every
  /// edge has formed.
  void edge_formed(std::size_t e, int fd);
  /// End join() with `why` (the first failure wins).
  void fail_join(std::string why);
  /// The listener on the loop: accept every queued connection and read its
  /// first control frame on the loop.
  void on_ready(std::uint32_t events) override;
  /// Route an accepted connection's first frame: a join's kHello while
  /// joining, a rejoin afterwards.
  void on_first_frame(int fd, const net::wire::ControlMsg& msg);
  /// The acceptor's side of a join handshake: validate, reply or reject.
  void accept_join(int fd, const net::wire::ControlMsg& hello,
                   const net::wire::ControlMsg& join);
  /// Answer the first frame of a connection accepted once the mesh formed.
  void answer_rejoin(int fd, const net::wire::ControlMsg& msg);

  MeshConfig cfg_;
  std::vector<std::size_t> neighbors_;  // ascending node ids
  std::vector<int> fds_;                // per neighbor slot, -1 until joined
  std::string error_;
  int listener_ = -1;                   // stays open for the whole run
  bool joining_ = false;                // join()'s loop is forming edges
  sockaddr_in dial_addr_{};             // the host, resolved once by join()
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
