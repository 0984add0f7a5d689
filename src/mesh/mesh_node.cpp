#include "mesh/mesh_node.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <utility>

#include "common/check.h"
#include "mesh/ctrl_io.h"
#include "mesh/stats_plane.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocols/anbkh.h"

namespace cim::mesh {

namespace {

using Clock = std::chrono::steady_clock;
using net::steady_ns;
using net::wire::ControlMsg;

// Simulator events per loop iteration: the batch between two looks at the
// sockets.
constexpr int kEngineBatch = 256;

// Budget for the one control frame of a connection accepted mid-run.
constexpr int kRejoinFrameBudgetMs = 1000;

}  // namespace

MeshNode::MeshNode(MeshConfig config) : cfg_(std::move(config)) {}

MeshNode::~MeshNode() {
  // Contract with the handlers: the loop must have exited before any
  // registered handler dies (net/epoll_loop.h); run() returns only then.
  loop_.stop();
  sessions_.clear();
  if (listener_ >= 0) ::close(listener_);
  for (int fd : fds_)
    if (fd >= 0) ::close(fd);
}

bool MeshNode::handshake_dial(int fd, std::size_t peer) {
  const std::uint64_t hash = cfg_.topo.hash();
  if (!send_ctrl_fd(fd, ControlMsg::kHello, cfg_.node_id,
                    net::wire::kWireVersion) ||
      !send_ctrl_fd(fd, ControlMsg::kJoin, cfg_.node_id, hash)) {
    error_ = "node " + std::to_string(peer) + ": handshake write failed";
    return false;
  }
  ControlMsg hello, join;
  if (const char* err = recv_ctrl_fd(fd, cfg_.join_timeout_ms, hello)) {
    error_ = "node " + std::to_string(peer) + ": " + err;
    return false;
  }
  // A reject arrives alone — do not wait for a second frame the peer will
  // never send (it has already closed).
  if (hello.code == ControlMsg::kJoinReject) {
    error_ = "node " + std::to_string(hello.a) +
             " rejected the join: " + reject_reason_name(hello.b);
    return false;
  }
  if (const char* err = recv_ctrl_fd(fd, cfg_.join_timeout_ms, join)) {
    error_ = "node " + std::to_string(peer) + ": " + err;
    return false;
  }
  if (join.code == ControlMsg::kJoinReject) {
    error_ = "node " + std::to_string(join.a) +
             " rejected the join: " + reject_reason_name(join.b);
    return false;
  }
  if (hello.code != ControlMsg::kHello || join.code != ControlMsg::kJoin) {
    error_ = "node " + std::to_string(peer) + ": unexpected handshake frames";
    return false;
  }
  if (hello.b != net::wire::kWireVersion) {
    error_ = "node " + std::to_string(peer) + ": wire version mismatch (peer v" +
             std::to_string(hello.b) + ", local v" +
             std::to_string(unsigned{net::wire::kWireVersion}) + ")";
    return false;
  }
  if (hello.a != peer || join.a != peer) {
    error_ = "dialed node " + std::to_string(peer) + " but node " +
             std::to_string(hello.a) + " answered";
    return false;
  }
  if (join.b != hash) {
    send_ctrl_fd(fd, ControlMsg::kJoinReject, cfg_.node_id,
                 kRejectTopologyHash);
    error_ = "node " + std::to_string(peer) +
             ": topology hash mismatch (diverging spec files?)";
    return false;
  }
  return true;
}

std::size_t MeshNode::handshake_accept(int fd) {
  ControlMsg hello, join;
  // Shorter per-connection budget than the overall accept deadline: a peer
  // that connected but went silent must not starve the real neighbors.
  const int per_conn_ms = std::max(1, cfg_.join_timeout_ms / 4);
  const char* err = recv_ctrl_fd(fd, per_conn_ms, hello);
  if (err == nullptr) err = recv_ctrl_fd(fd, per_conn_ms, join);
  if (err != nullptr || hello.code != ControlMsg::kHello ||
      join.code != ControlMsg::kJoin) {
    ::close(fd);  // died mid-handshake or spoke garbage: drop, keep accepting
    return isc::Topology::npos;
  }
  std::uint64_t reject = 0;
  std::size_t slot = isc::Topology::npos;
  for (std::size_t e = 0; e < neighbors_.size(); ++e)
    if (neighbors_[e] == hello.a && neighbors_[e] > cfg_.node_id) slot = e;
  if (hello.b != net::wire::kWireVersion) {
    reject = kRejectWireVersion;
  } else if (slot == isc::Topology::npos) {
    reject = kRejectNotANeighbor;
  } else if (fds_[slot] >= 0) {
    reject = kRejectDuplicateJoin;
  } else if (join.b != cfg_.topo.hash()) {
    reject = kRejectTopologyHash;
  }
  if (reject != 0) {
    send_ctrl_fd(fd, ControlMsg::kJoinReject, cfg_.node_id, reject);
    ::close(fd);
    return isc::Topology::npos;
  }
  if (!send_ctrl_fd(fd, ControlMsg::kHello, cfg_.node_id,
                    net::wire::kWireVersion) ||
      !send_ctrl_fd(fd, ControlMsg::kJoin, cfg_.node_id, cfg_.topo.hash())) {
    ::close(fd);
    return isc::Topology::npos;
  }
  fds_[slot] = fd;
  return slot;
}

bool MeshNode::load_resume_state() {
  std::string err;
  if (!SpillJournal::load(cfg_.state_path, restored_, err)) {
    error_ = err;
    return false;
  }
  if (restored_.node_id != cfg_.node_id) {
    error_ = "state journal belongs to node " +
             std::to_string(restored_.node_id) + ", not node " +
             std::to_string(cfg_.node_id);
    return false;
  }
  if (restored_.topo_hash != cfg_.topo.hash()) {
    error_ = "state journal topology hash mismatch (different spec file?)";
    return false;
  }
  if (restored_.seed != cfg_.seed) {
    error_ = "state journal seed mismatch";
    return false;
  }
  if (restored_.links.size() != neighbors_.size()) {
    error_ = "state journal link count mismatch";
    return false;
  }
  for (const SpillLinkState& l : restored_.links) {
    if (l.done_sent || l.bye_sent) {
      // Our done already announced a final pair count; re-running the
      // workload would invalidate it. The convergecast is not resumable
      // once begun — restart the whole mesh instead.
      error_ = "cannot resume: termination had already begun";
      return false;
    }
  }
  generation_ = restored_.generation + 1;
  if (generation_ > 4) {
    // Value ranges are [id*1e6 + g*200k, ...): generation 5 would collide
    // with the next node's range and break value-identifies-write.
    error_ = "too many restart generations (value ranges would collide)";
    return false;
  }
  return true;
}

std::uint64_t MeshNode::edge_session_id(std::size_t peer) const {
  // FNV-1a over (topology hash, seed, lower id, higher id): both endpoints
  // compute the same id with no coordination, and a rejoin from a different
  // run (other seed/spec) can never match — it is rejected as stale.
  const std::uint64_t lo = std::min<std::uint64_t>(cfg_.node_id, peer);
  const std::uint64_t hi = std::max<std::uint64_t>(cfg_.node_id, peer);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t v : {cfg_.topo.hash(), cfg_.seed, lo, hi}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h != 0 ? h : 1;
}

bool MeshNode::join() {
  isc::TopologyResult vr = isc::validate_topology(cfg_.topo);
  if (!vr.ok()) {
    error_ = vr.error;
    return false;
  }
  cfg_.topo = std::move(vr.topo);
  if (cfg_.node_id >= cfg_.topo.nodes) {
    error_ = "node id " + std::to_string(cfg_.node_id) +
             " outside the topology (" + std::to_string(cfg_.topo.nodes) +
             " nodes)";
    return false;
  }
  neighbors_ = cfg_.topo.neighbors(cfg_.node_id);
  fds_.assign(neighbors_.size(), -1);

  std::size_t higher = 0;
  for (std::size_t nb : neighbors_)
    if (nb > cfg_.node_id) ++higher;

  if (cfg_.resume) {
    if (cfg_.state_path.empty()) {
      error_ = "--resume requires --state";
      return false;
    }
    if (!load_resume_state()) return false;
  }

  // Listen before dialing: higher-id neighbors may dial us at any moment
  // once their own lower dials are through. The backlog holds them all.
  // The listener stays open for the whole run (the loop answers rejoins).
  if (higher > 0)
    listener_ = net::tcp_listen(
        static_cast<std::uint16_t>(cfg_.base_port + cfg_.node_id),
        static_cast<int>(higher));
  // A resumed node skips the handshakes: every edge re-forms through the
  // kRejoin path, and crashed-and-back higher-id dialers find our listener.
  if (cfg_.resume) return true;

  // Dial every lower-id neighbor. Dial targets are strictly decreasing in
  // id, so the wait-for graph is acyclic: mesh formation cannot deadlock.
  for (std::size_t e = 0; e < neighbors_.size(); ++e) {
    if (neighbors_[e] >= cfg_.node_id) continue;
    int fd = -1;
    try {
      fd = net::tcp_connect(
          cfg_.host.c_str(),
          static_cast<std::uint16_t>(cfg_.base_port + neighbors_[e]),
          cfg_.dial_retries);
    } catch (const InvariantViolation& e2) {
      error_ = e2.what();
    }
    if (fd < 0 || !handshake_dial(fd, neighbors_[e])) {
      if (fd >= 0) ::close(fd);
      if (listener_ >= 0) ::close(listener_);
      listener_ = -1;
      return false;
    }
    fds_[e] = fd;
  }

  // Accept every higher-id neighbor, whichever order they arrive in (the
  // join hello tells us who each connection is). Impostors and duplicates
  // are rejected and the wait continues; the deadline bounds a genuinely
  // missing peer.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(cfg_.join_timeout_ms);
  std::size_t joined = 0;
  while (joined < higher) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    const int timeout = static_cast<int>(std::max<std::int64_t>(
        0, left.count()));
    const int fd = timeout > 0 ? net::tcp_accept(listener_, timeout) : -1;
    if (fd < 0) {
      std::string missing;
      for (std::size_t e = 0; e < neighbors_.size(); ++e) {
        if (neighbors_[e] > cfg_.node_id && fds_[e] < 0)
          missing += (missing.empty() ? "" : ", ") +
                     std::to_string(neighbors_[e]);
      }
      error_ = "join timed out waiting for node(s) " + missing;
      ::close(listener_);
      listener_ = -1;
      return false;
    }
    if (handshake_accept(fd) != isc::Topology::npos) ++joined;
  }
  return true;
}

void MeshNode::on_ready(std::uint32_t) {
  // Each connection gets its own loop reader and budget: a silent one delays
  // no rejoin behind it.
  for (int fd = net::tcp_accept(listener_); fd >= 0;
       fd = net::tcp_accept(listener_)) {
    read_ctrl_on_loop(loop_, fd, kRejoinFrameBudgetMs, nullptr,
                      [this](const char* err, int sock, const ControlMsg& msg) {
                        if (err == nullptr) answer_rejoin(sock, msg);
                      });
  }
}

void MeshNode::answer_rejoin(int fd, const ControlMsg& msg) {
  if (msg.code == ControlMsg::kRejoin) {
    for (auto& s : sessions_) {
      if (s->session_id() == msg.b && s->peer_id() == msg.a) {
        s->accept_rejoin(fd, msg.c);
        return;
      }
    }
  }
  // An unknown or old session id, or a fresh kHello for a mesh that already
  // formed: the dialer is from some other world (stale spec, stray process).
  send_ctrl_fd(fd, ControlMsg::kJoinReject, cfg_.node_id, kRejectStaleSession);
  ::close(fd);
}

MeshResult MeshNode::run() {
  MeshResult result;
  const std::size_t n_links = neighbors_.size();
  if (!cfg_.resume)
    for (int fd : fds_)
      CIM_CHECK_MSG(fd >= 0 || n_links == 0, "run before join");

  // Open this generation's spill journal before anything can send: the
  // journal must never miss a session event.
  if (!cfg_.state_path.empty()) {
    SpillState st;
    st.node_id = cfg_.node_id;
    st.topo_hash = cfg_.topo.hash();
    st.seed = cfg_.seed;
    st.generation = generation_;
    if (cfg_.resume) st.links = restored_.links;
    else st.links.assign(n_links, SpillLinkState{});
    if (!spill_.create(cfg_.state_path, st)) {
      error_ = "cannot write state journal " + cfg_.state_path;
      return result;
    }
  }

  isc::FederationConfig cfg;
  cfg.obs.trace.enabled = cfg_.trace;
  cfg.monitor.enabled = true;
  mcs::SystemConfig sys;
  // A resumed incarnation is a *new* causal memory system joining the tree
  // (the paper's systems are static; restart-as-new-system keeps us inside
  // the model). Offset the id so its processes never collide with the
  // crashed generation's in the merged history.
  sys.id = SystemId{
      static_cast<std::uint16_t>(cfg_.node_id + generation_ * 4096)};
  sys.num_app_processes = cfg_.procs;
  sys.protocol = proto::anbkh_protocol();
  sys.seed = cfg_.seed + cfg_.node_id;
  cfg.systems.push_back(std::move(sys));
  for (std::size_t e = 0; e < n_links; ++e)
    cfg.external_links.push_back(isc::ExternalLinkSpec{});
  fed_ = std::make_unique<isc::Federation>(std::move(cfg));

  // Crash-durable history stream: writes hit the page cache at invocation,
  // before the pair can leave the engine thread, so any write a peer ever
  // sees is on disk (zero lost writes in the merged history). Appends on
  // resume — the crashed generation's prefix is already there.
  if (!cfg_.history_path.empty()) {
    history_ = std::make_unique<std::ofstream>(
        cfg_.history_path,
        cfg_.resume ? std::ios::app : std::ios::trunc);
    if (!*history_) {
      error_ = "cannot write history " + cfg_.history_path;
      return result;
    }
    fed_->recorder().set_listener([this](const chk::Op& op) {
      if (op.is_isp) return;
      auto& os = *history_;
      os << (op.kind == chk::OpKind::kRead ? 'r' : 'w') << ' '
         << op.proc.system.value << ' ' << op.proc.index << ' '
         << op.var.value << ' ' << op.value << '\n';
      os.flush();
    });
  }

  loop_.set_fault_hooks(cfg_.faults);
  std::vector<std::size_t> link_idx(n_links);
  SpillJournal* spill = cfg_.state_path.empty() ? nullptr : &spill_;
  for (std::size_t e = 0; e < n_links; ++e) {
    SessionConfig sc;
    sc.session_id = edge_session_id(neighbors_[e]);
    sc.self_id = cfg_.node_id;
    sc.peer_id = neighbors_[e];
    sc.link_index = e;
    // Reconnects re-dial in the original join direction — the higher id
    // dials the lower id's listener, which stays open for the whole run.
    sc.dialer = neighbors_[e] < cfg_.node_id;
    sc.host = cfg_.host;
    sc.peer_port = static_cast<std::uint16_t>(cfg_.base_port + neighbors_[e]);
    sc.hb_interval_ms = cfg_.hb_interval_ms;
    sc.liveness_timeout_ms = cfg_.liveness_timeout_ms;
    sc.degraded_timeout_ms = cfg_.degraded_timeout_ms;
    sc.backoff_initial_ms = cfg_.backoff_initial_ms;
    sc.backoff_max_ms = cfg_.backoff_max_ms;
    sc.reconnect_attempts = cfg_.reconnect_attempts;
    sc.link.faults = cfg_.faults;
    sessions_.push_back(
        std::make_unique<LinkSession>(std::move(sc), loop_, spill));
    if (cfg_.resume) sessions_[e]->restore(restored_.links[e]);
    link_idx[e] = fed_->interconnector().attach_external_link(
        e, sessions_[e].get());
  }
  // Every external link of this node shares the one IS-process, which is
  // exactly what makes the tree work: a pair arriving on link L is applied
  // locally and forwarded to every other link (split horizon).
  isc::IsProcess* isp =
      n_links > 0 ? &fed_->interconnector().external_isp(0) : nullptr;

  wl::UniformConfig wc;
  wc.ops_per_process = cfg_.ops;
  wc.seed = cfg_.seed * 2 + cfg_.node_id;
  // Each generation writes a disjoint value range (header comment): the
  // checker's value-identifies-write premise survives restarts.
  wc.value_base = static_cast<Value>(cfg_.node_id) * 1'000'000 +
                  static_cast<Value>(generation_) * 200'000;
  auto runners = wl::install_uniform(*fed_, wc);

  // Everything below runs on the loop, i.e. on this thread: the engine, the
  // frame callbacks, the convergecast and the stats plane share it, so this
  // state needs no synchronization. Pairs applied per link count across
  // generations: the restored delivery cursor seeds them, so a resumed
  // node's drained() comparison counts the crashed generation's applies too.
  std::vector<bool> peer_done(n_links, false);
  std::vector<bool> peer_bye(n_links, false);
  std::vector<std::uint64_t> peer_pairs(n_links, 0);
  std::vector<std::uint64_t> applied_pairs(n_links, 0);
  for (std::size_t e = 0; e < n_links && cfg_.resume; ++e) {
    const SpillLinkState& r = restored_.links[e];
    peer_done[e] = r.peer_done;
    peer_bye[e] = r.peer_bye;
    peer_pairs[e] = r.peer_pairs;
    applied_pairs[e] = r.data_delivered;
  }

  // ---- stats plane (docs/BRIDGE.md "Stats aggregation") --------------------
  FedAggregator agg;
  std::size_t stats_parent_e = isc::Topology::npos;
  if (cfg_.node_id != 0) {
    const std::size_t parent_node = stats_parent(cfg_.topo, cfg_.node_id);
    for (std::size_t e = 0; e < n_links; ++e)
      if (neighbors_[e] == parent_node) stats_parent_e = e;
  }
  std::deque<std::unique_ptr<net::wire::StatsFrame>> stats_relay;
  // Send a snapshot toward node 0. While the parent's journal is full the
  // snapshots wait here, bounded: a long parent outage drops the oldest and
  // never pauses the engine. FIFO keeps children's snapshots older than ours.
  auto relay_stats = [&](std::unique_ptr<net::wire::StatsFrame> frame) {
    if (stats_parent_e == isc::Topology::npos) return;
    if (stats_relay.size() >= 64) stats_relay.pop_front();
    stats_relay.push_back(std::move(frame));
    LinkSession& parent = *sessions_[stats_parent_e];
    while (!stats_relay.empty() && !parent.full()) {
      parent.send(std::move(stats_relay.front()));
      stats_relay.pop_front();
    }
  };

  sim::Simulator& sim = fed_->simulator();
  for (std::size_t e = 0; e < n_links; ++e) {
    isc::IsProcess* isp_ptr = isp;
    const std::size_t link = link_idx[e];
    std::uint64_t* applied = &applied_pairs[e];
    sessions_[e]->start(
        cfg_.resume ? -1 : fds_[e],
        [&, isp_ptr, link, applied, e](net::MessagePtr msg) {
          if (std::strcmp(msg->type_name(), "wire.ctrl") == 0) {
            auto& ctrl = static_cast<ControlMsg&>(*msg);
            if (ctrl.code == ControlMsg::kDone) {
              peer_pairs[e] = ctrl.a;
              peer_done[e] = true;
            } else if (ctrl.code == ControlMsg::kBye) {
              peer_bye[e] = true;
            }
            return;
          }
          if (std::strcmp(msg->type_name(), "wire.stats") == 0) {
            auto frame = std::unique_ptr<net::wire::StatsFrame>(
                static_cast<net::wire::StatsFrame*>(msg.release()));
            if (cfg_.node_id == 0) agg.fold(*frame);
            else relay_stats(std::move(frame));
            return;
          }
          // A pair: deliver_from_link runs protocol code (and may forward
          // to sibling links) as an ordinary engine event on this thread.
          sim.post([isp_ptr, link, applied, msg = std::move(msg)]() mutable {
            isp_ptr->deliver_from_link(link, std::move(msg));
            ++*applied;
          });
        });
    fds_[e] = -1;  // the session's transport owns it now
  }

  // Snapshot of this node's session/transport gauges, keyed relative to the
  // node (the aggregator prefixes fed.node.<origin>.).
  auto sample_stats = [&]() {
    auto f = std::make_unique<net::wire::StatsFrame>();
    f->origin = cfg_.node_id;
    f->t_ns = static_cast<std::uint64_t>(steady_ns());
    auto put = [&f](std::string key, std::int64_t v) {
      f->entries.emplace_back(std::move(key), v);
    };
    put("generation", generation_);
    std::int64_t bytes_out = 0;
    std::int64_t bytes_in = 0;
    for (std::size_t e = 0; e < n_links; ++e) {
      LinkSession& s = *sessions_[e];
      const std::string p = "peer." + std::to_string(neighbors_[e]) + ".";
      put(p + "down", s.down() ? 1 : 0);
      put(p + "journal_depth", static_cast<std::int64_t>(s.backlog()));
      put(p + "hb_miss", static_cast<std::int64_t>(s.hb_miss()));
      put(p + "resumes", static_cast<std::int64_t>(s.resumes()));
      put(p + "dup_drops", static_cast<std::int64_t>(s.dup_drops()));
      put(p + "pairs_sent", static_cast<std::int64_t>(s.data_sent()));
      put(p + "pairs_delivered", static_cast<std::int64_t>(s.data_delivered()));
      put(p + "rtt_ns", s.best_rtt_ns());
      put(p + "offset_ns", s.clock_offset_ns());
      put(p + "rtt_count", static_cast<std::int64_t>(s.rtt_count()));
      bytes_out += static_cast<std::int64_t>(s.wire_bytes_out());
      bytes_in += static_cast<std::int64_t>(s.wire_bytes_in());
    }
    put("bytes_out", bytes_out);
    put("bytes_in", bytes_in);
    return f;
  };

  // The run's phases, advanced by progress() in the loop; kFinished ends
  // the loop.
  enum class Phase { kConvergecast, kDrain, kFinished };
  Phase phase = Phase::kConvergecast;
  auto finish = [&] {
    phase = Phase::kFinished;
    loop_.stop();
  };

  // Stats cadence: a loop timer, first sample at once so short runs and
  // slow cadences still cover every node.
  std::function<void()> stats_tick = [&] {
    if (phase == Phase::kFinished) return;
    if (cfg_.trace) {
      // Pin a (virtual time, steady clock) correspondence — both clocks
      // read at the same instant on the engine's thread — so cim_trace merge
      // can align this node's virtual timeline onto the shared wall clock
      // (trace schema v4, docs/TRACE_TOOLS.md "merge").
      obs::TraceSink& tr = fed_->observability().trace();
      CIM_TRACE(&tr, sim.now(), obs::TraceCategory::kSim, "clock_sample",
                {{"steady_ns", steady_ns()},
                 {"node", static_cast<std::uint64_t>(cfg_.node_id)}});
    }
    if (cfg_.node_id == 0) {
      agg.fold(*sample_stats());
      if (!cfg_.fed_metrics_path.empty())
        agg.write_json(cfg_.fed_metrics_path);
    } else {
      relay_stats(sample_stats());
    }
    loop_.post_after(cfg_.stats_interval_ms, stats_tick);
  };
  if (cfg_.stats_interval_ms > 0) loop_.post(stats_tick);

  std::vector<bool> done_sent(n_links, false);
  std::vector<bool> bye_sent(n_links, false);
  auto send_ctrl = [&](std::size_t e, std::uint8_t code, std::uint64_t a,
                       std::uint64_t b) {
    auto msg = std::make_unique<ControlMsg>();
    msg->code = code;
    msg->a = a;
    msg->b = b;
    sessions_[e]->send(std::move(msg));
  };
  // Drained: the peer's done announced its final count and we have applied
  // that many pairs. `>=` rather than `==`: a resumed peer's count starts
  // from its restored cursor, and replay duplicates never reach the engine.
  auto drained = [&](std::size_t e) {
    return peer_done[e] && applied_pairs[e] >= peer_pairs[e];
  };

  // Final drain: every sent frame acked (the peer journaled our done/bye),
  // bounded by drain_timeout_ms. A peer that already said bye and closed its
  // socket is *probably* done with us — but "probably" is a race: the same
  // socket death can mean our bye never arrived and the peer is mid-redial,
  // and abandoning it now strands it waiting for a bye that a dead listener
  // will never replay. So the escape only fires once the link has stayed
  // disconnected through a grace window sized to the peer's worst
  // rejoin-latency (its capped backoff plus detection); a rejoin inside the
  // window resets the clock and the journal replays normally.
  const auto rejoin_grace = std::chrono::milliseconds(
      2 * cfg_.backoff_max_ms + 2 * cfg_.hb_interval_ms);
  Clock::time_point drain_deadline;
  std::vector<Clock::time_point> dead_since(n_links, Clock::time_point{});
  auto drain_complete = [&] {
    if (Clock::now() >= drain_deadline) return true;
    bool all = true;
    const auto now = Clock::now();
    for (std::size_t e = 0; e < n_links; ++e) {
      if (sessions_[e]->drained()) continue;
      if (peer_bye[e] && !sessions_[e]->connected()) {
        if (dead_since[e] == Clock::time_point{}) dead_since[e] = now;
        if (now - dead_since[e] >= rejoin_grace) continue;
      } else {
        dead_since[e] = Clock::time_point{};
      }
      all = false;
    }
    return all;
  };

  // The done/bye convergecast (header comment + docs/BRIDGE.md), then the
  // final drain. Runs after every engine batch, i.e. every loop iteration. A dead socket is *not* an
  // exit condition — the session reconnects or backpressures; only a
  // permanent session failure aborts the node.
  std::function<void()> drain_poll;
  auto progress = [&] {
    if (phase == Phase::kDrain) {
      if (drain_complete()) finish();
      return;
    }
    for (std::size_t e = 0; e < n_links; ++e) {
      if (sessions_[e]->error() != nullptr) {
        error_ = std::string("link to node ") +
                 std::to_string(neighbors_[e]) + ": " + sessions_[e]->error();
        finish();
        return;
      }
    }
    if (!sim.empty()) return;
    for (const auto& r : runners)
      if (!r->done()) return;
    for (std::size_t l = 0; l < n_links; ++l) {
      if (done_sent[l]) continue;
      bool others_drained = true;
      for (std::size_t m = 0; m < n_links; ++m)
        if (m != l && !drained(m)) others_drained = false;
      if (others_drained) {
        // data_sent(l) is final: nothing local remains, and every other
        // link is drained, so no more forwards onto l can appear. The
        // session counts across generations, matching the peer's
        // cross-generation applied count.
        send_ctrl(l, ControlMsg::kDone, sessions_[l]->data_sent(), 0);
        done_sent[l] = true;
      }
    }
    for (std::size_t l = 0; l < n_links; ++l) {
      if (!bye_sent[l] && drained(l)) {
        send_ctrl(l, ControlMsg::kBye, 0, 0);
        bye_sent[l] = true;
      }
    }
    for (std::size_t e = 0; e < n_links; ++e)
      if (!done_sent[e] || !bye_sent[e] || !peer_bye[e]) return;
    for (auto& s : sessions_) s->begin_shutdown();
    phase = Phase::kDrain;
    drain_deadline =
        Clock::now() + std::chrono::milliseconds(cfg_.drain_timeout_ms);
    // Grace windows and the deadline expire without any I/O: a timer keeps
    // the loop iterating, and every iteration checks the drain.
    drain_poll = [&] {
      if (phase == Phase::kDrain) loop_.post_after(2, drain_poll);
    };
    drain_poll();
  };

  // The engine: one bounded batch of simulator events per loop iteration,
  // paused while any session's journal is at its bound (the acks that make
  // room arrive on this same loop).
  auto engine_paused = [&] {
    for (const auto& s : sessions_)
      if (s->full()) return true;
    return false;
  };
  loop_.set_work([&] {
    if (phase == Phase::kFinished) return false;
    bool more = false;
    if (phase == Phase::kConvergecast && !engine_paused()) {
      for (int i = 0; i < kEngineBatch && sim.step(); ++i) {
      }
      more = !sim.empty();
    }
    progress();
    return more && phase != Phase::kFinished;
  });
  // Rejoin service — registered only after every session exists, so a
  // crashed dialer reconnecting the instant we come back finds its session.
  if (listener_ >= 0) {
    net::set_nonblocking(listener_);
    loop_.add(listener_, this);
  }
  sessions_ready_.store(true, std::memory_order_release);
  // The loop runs on this thread until finish() stops it.
  loop_.run();
  // The loop has exited, so close the sockets (net/epoll_loop.h order): the
  // peers see EOF now, and the sessions keep their counters for the caller.
  for (auto& s : sessions_) s->stop();
  if (!error_.empty()) return result;

  // Fold the session and loop counters into the registry (the loop has
  // exited).
  obs::MetricsRegistry& m = fed_->observability().metrics();
  std::uint64_t bytes_out = 0, bytes_in = 0, sys_read = 0, sys_writev = 0;
  std::uint64_t coalesced = 0;
  for (const auto& s : sessions_) {
    bytes_out += s->wire_bytes_out();
    bytes_in += s->wire_bytes_in();
    sys_read += s->syscalls_read();
    sys_writev += s->syscalls_write();
    coalesced += s->frames_coalesced();
  }
  m.counter("net.wire.bytes_out").inc(bytes_out);
  m.counter("net.wire.bytes_in").inc(bytes_in);
  m.counter("net.mesh.syscalls_read").inc(sys_read);
  m.counter("net.mesh.syscalls_writev").inc(sys_writev);
  m.counter("net.mesh.frames_coalesced").inc(coalesced);
  m.counter("net.mesh.epoll_waits").inc(loop_.epoll_waits());
  m.counter("net.mesh.wakeups").inc(loop_.wakeups());
  // Per-peer session gauges (docs/OBSERVABILITY.md, schema v4).
  for (std::size_t e = 0; e < n_links; ++e) {
    const std::string p =
        "net.mesh." + std::to_string(neighbors_[e]) + ".";
    m.gauge(p + "down").set(sessions_[e]->down() ? 1 : 0);
    m.gauge(p + "hb_miss").set(
        static_cast<std::int64_t>(sessions_[e]->hb_miss()));
    m.gauge(p + "resumes").set(
        static_cast<std::int64_t>(sessions_[e]->resumes()));
    m.gauge(p + "dup_drops").set(
        static_cast<std::int64_t>(sessions_[e]->dup_drops()));
    m.gauge(p + "pairs_sent").set(
        static_cast<std::int64_t>(sessions_[e]->data_sent()));
    m.gauge(p + "pairs_delivered").set(
        static_cast<std::int64_t>(sessions_[e]->data_delivered()));
    // Heartbeat-derived RTT/clock alignment (schema v5, docs/OBSERVABILITY.md
    // "Link RTT and clock offsets").
    auto& rtt = m.value_histogram(p + "rtt_ns");
    for (std::int64_t v : sessions_[e]->rtt_samples()) rtt.observe(v);
    m.gauge(p + "rtt_best_ns").set(sessions_[e]->best_rtt_ns());
    m.gauge(p + "offset_ns").set(sessions_[e]->clock_offset_ns());
    m.gauge(p + "rtt_count").set(
        static_cast<std::int64_t>(sessions_[e]->rtt_count()));
  }

  // Final federation snapshot: fold our own closing sample so the file node 0
  // leaves behind covers the full run even when the last cadence tick raced
  // shutdown.
  if (cfg_.stats_interval_ms > 0 && cfg_.node_id == 0 &&
      !cfg_.fed_metrics_path.empty()) {
    agg.fold(*sample_stats());
    agg.write_json(cfg_.fed_metrics_path);
  }

  for (const auto& r : runners) result.ops_done += r->steps_completed();
  if (isp != nullptr) {
    result.pairs_sent = isp->pairs_sent();
    result.pairs_received = isp->pairs_received();
  }
  result.violations =
      fed_->monitor() != nullptr ? fed_->monitor()->violation_count() : 0;
  result.ok = true;
  return result;
}

}  // namespace cim::mesh
