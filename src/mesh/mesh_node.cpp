#include "mesh/mesh_node.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
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

// Value ranges (mesh_node.h): node i's generation g writes values from
// i * kNodeValues + g * kGenerationValues + 1 on, at most one per write, so
// a generation may issue at most kGenerationValues writes (procs x ops).
constexpr std::uint64_t kNodeValues = 1'000'000;
constexpr std::uint64_t kGenerationValues = 200'000;

// Generation g of node i runs as system i + g * kGenerationIds, so a
// topology may hold at most kGenerationIds nodes (16-bit SystemIds).
constexpr std::size_t kGenerationIds = 4096;

// The per-peer session counters that both the stats-plane sample
// (peer.<id>.*) and the post-run gauges (net.mesh.<id>.*) report, under the
// same names (docs/OBSERVABILITY.md).
std::array<std::pair<const char*, std::int64_t>, 8> peer_counters(
    const LinkSession& s) {
  auto i = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  return {{{"down", s.down()},
           {"hb_miss", i(s.hb_miss())},
           {"resumes", i(s.resumes())},
           {"dup_drops", i(s.dup_drops())},
           {"pairs_sent", i(s.data_sent())},
           {"pairs_delivered", i(s.data_delivered())},
           {"offset_ns", s.clock_offset_ns()},
           {"rtt_count", i(s.rtt_count())}}};
}

}  // namespace

std::uint64_t edge_session_id(const isc::Topology& topo, std::uint64_t seed,
                              std::size_t a, std::size_t b) {
  // FNV-1a over (wire version, topology hash, seed, lower id, higher id):
  // both endpoints compute the same id with no coordination, and a peer of
  // another build, spec file or seed never matches — it is refused.
  const std::uint64_t lo = std::min(a, b);
  const std::uint64_t hi = std::max(a, b);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t v :
       {std::uint64_t{net::wire::kWireVersion}, topo.hash(), seed, lo, hi}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h != 0 ? h : 1;
}

MeshNode::MeshNode(MeshConfig config) : cfg_(std::move(config)) {}

MeshNode::~MeshNode() {
  // Contract with the handlers: the loop must have exited before any
  // registered handler dies (net/epoll_loop.h); join() and run() return
  // only then.
  loop_.stop();
  sessions_.clear();
  if (listener_ >= 0) ::close(listener_);
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
  if (++restored_.generation > 4) {
    // Value ranges are [id*1e6 + g*200k, ...): generation 5 would collide
    // with the next node's range and break value-identifies-write.
    error_ = "too many restart generations (value ranges would collide)";
    return false;
  }
  return true;
}

bool MeshNode::join() {
  isc::TopologyResult vr = isc::validate_topology(cfg_.topo);
  if (!vr.ok()) {
    error_ = vr.error;
    return false;
  }
  cfg_.topo = std::move(vr.topo);
  // procs x ops > kGenerationValues, without overflowing on a huge --ops.
  if (cfg_.procs > 0 && cfg_.ops > kGenerationValues / cfg_.procs) {
    error_ = "procs x ops = " + std::to_string(cfg_.procs) + " x " +
             std::to_string(cfg_.ops) +
             " may issue more writes than a generation's " +
             std::to_string(kGenerationValues) + " values";
    return false;
  }
  if (cfg_.node_id >= cfg_.topo.nodes) {
    error_ = "node id " + std::to_string(cfg_.node_id) +
             " outside the topology (" + std::to_string(cfg_.topo.nodes) +
             " nodes)";
    return false;
  }
  if (cfg_.topo.nodes > kGenerationIds) {
    error_ = std::to_string(cfg_.topo.nodes) + " nodes: at most " +
             std::to_string(kGenerationIds) +
             " fit the system ids of a node's generations";
    return false;
  }
  // Node i listens on base_port + i: every node's port must be a real one.
  const std::size_t last_port = cfg_.base_port + cfg_.topo.nodes - 1;
  if (cfg_.topo.nodes > 1 && (cfg_.base_port == 0 || last_port > 65535)) {
    error_ = "base port " + std::to_string(cfg_.base_port) + " with " +
             std::to_string(cfg_.topo.nodes) +
             " nodes: node ports must lie in [1, 65535]";
    return false;
  }
  neighbors_ = cfg_.topo.neighbors(cfg_.node_id);
  const std::size_t n_links = neighbors_.size();

  // A fresh node is a node restored from an empty journal: generation 0,
  // every link at cursor 0. Either way each link forms through the same
  // handshake, a rejoin at the link's delivery cursor.
  if (cfg_.resume) {
    if (cfg_.state_path.empty()) {
      error_ = "--resume requires --state";
      return false;
    }
    if (!load_resume_state()) return false;
  } else {
    if (!cfg_.state_path.empty() && n_links > 0 && load_resume_state()) {
      // Truncating a crashed run's journal would lose this node's only way
      // back into that mesh, whose nodes refuse a fresh start's cursors.
      error_ = "state journal " + cfg_.state_path +
               " holds an unfinished run of this node: pass --resume to "
               "continue it, or remove it";
      return false;
    }
    error_.clear();
    restored_ = SpillState{cfg_.node_id, cfg_.topo.hash(), cfg_.seed, 0,
                           std::vector<SpillLinkState>(n_links)};
  }
  // Open this generation's spill journal before anything can send: the
  // journal must never miss a session event.
  if (!cfg_.state_path.empty() && !spill_.create(cfg_.state_path, restored_)) {
    error_ = "cannot write state journal " + cfg_.state_path;
    return false;
  }

  isc::FederationConfig cfg;
  cfg.obs.trace.enabled = cfg_.trace;
  cfg.monitor.enabled = true;
  mcs::SystemConfig sys;
  // A resumed incarnation is a *new* causal memory system joining the tree
  // (the paper's systems are static; restart-as-new-system keeps us inside
  // the model). Offset the id so its processes never collide with the
  // crashed generation's in the merged history.
  sys.id = SystemId{static_cast<std::uint16_t>(
      cfg_.node_id + generation() * kGenerationIds)};
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
        cfg_.history_path, cfg_.resume ? std::ios::app : std::ios::trunc);
    if (!*history_) {
      error_ = "cannot write history " + cfg_.history_path;
      return false;
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
  if (cfg_.node_id != 0) {
    const std::size_t parent_node = stats_parent(cfg_.topo, cfg_.node_id);
    for (std::size_t e = 0; e < n_links; ++e)
      if (neighbors_[e] == parent_node) stats_parent_e_ = e;
  }

  // One socketless session per edge. A session delivers from its first
  // frame on, so the convergecast state is seeded before any starts: pairs
  // applied per link count across generations (the restored delivery
  // cursor seeds them), so a resumed node's drained() comparison counts
  // the crashed generation's applies too.
  loop_.set_fault_hooks(cfg_.faults);
  SpillJournal* spill = cfg_.state_path.empty() ? nullptr : &spill_;
  for (std::size_t e = 0; e < n_links; ++e) {
    SessionConfig sc;
    sc.session_id = edge_session_id(cfg_.topo, cfg_.seed, cfg_.node_id,
                                    neighbors_[e]);
    sc.self_id = cfg_.node_id;
    sc.peer_id = neighbors_[e];
    sc.link_index = e;
    // The higher id dials the lower id's listener, which stays open for the
    // whole run.
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
    const SpillLinkState& r = restored_.links[e];
    // restore() marks the link formed: a fresh node's links are not.
    if (cfg_.resume) sessions_[e]->restore(r);
    peers_.push_back(PeerProgress{
        r.peer_done, r.peer_bye, r.peer_pairs, r.data_delivered,
        fed_->interconnector().attach_external_link(e, sessions_[e].get())});
  }
  for (std::size_t e = 0; e < n_links; ++e)
    sessions_[e]->start([this, e](net::MessagePtr msg) {
      deliver(e, std::move(msg));
    });

  // Listen once the sessions exist: the listener hands every handshake to
  // one of them. It stays on the loop for the whole run, so crashed
  // higher-id dialers can rejoin.
  if (!neighbors_.empty() && neighbors_.back() > cfg_.node_id) {
    listener_ = net::tcp_listen(
        static_cast<std::uint16_t>(cfg_.base_port + cfg_.node_id));
    loop_.add(listener_, this);
  }

  // The loop runs until every link has connected, one has failed, or the
  // deadline passed. A resumed node's links formed before: past the
  // deadline it runs with the missing ones down, and they re-form like
  // after any outage.
  loop_.post_after(cfg_.join_timeout_ms, [this] {
    if (sessions_ready() || !error_.empty()) return;
    if (cfg_.resume) return loop_.stop();
    std::string missing;
    for (std::size_t e = 0; e < sessions_.size(); ++e) {
      if (!sessions_[e]->connected())
        missing += (missing.empty() ? "" : ", ") +
                   std::to_string(neighbors_[e]);
    }
    error_ = "join timed out waiting for node(s) " + missing;
    loop_.stop();
  });
  loop_.set_work([this] {
    const bool formed =
        std::all_of(sessions_.begin(), sessions_.end(),
                    [](const auto& s) { return s->connected(); });
    if (error_.empty() && (link_failed() || formed)) loop_.stop();
    return false;
  });
  if (n_links > 0) loop_.run();
  if (!error_.empty()) {
    for (auto& s : sessions_) s->stop();
    if (listener_ >= 0) {
      loop_.remove(listener_);
      ::close(listener_);
      listener_ = -1;
    }
    return false;
  }
  sessions_ready_.store(true, std::memory_order_release);
  return true;
}

bool MeshNode::link_failed() {
  for (std::size_t e = 0; e < sessions_.size(); ++e) {
    if (sessions_[e]->error() != nullptr) {
      error_ = "link to node " + std::to_string(neighbors_[e]) + ": " +
               sessions_[e]->error();
      return true;
    }
  }
  return false;
}

void MeshNode::deliver(std::size_t e, net::MessagePtr msg) {
  if (std::strcmp(msg->type_name(), "wire.ctrl") == 0) {
    auto& ctrl = static_cast<ControlMsg&>(*msg);
    if (ctrl.code == ControlMsg::kDone) {
      peers_[e].pairs = ctrl.a;
      peers_[e].done = true;
    } else if (ctrl.code == ControlMsg::kBye) {
      peers_[e].bye = true;
    }
    return;
  }
  if (std::strcmp(msg->type_name(), "wire.stats") == 0) {
    auto frame = std::unique_ptr<net::wire::StatsFrame>(
        static_cast<net::wire::StatsFrame*>(msg.release()));
    if (cfg_.node_id == 0) agg_.fold(*frame);
    else relay_stats(std::move(frame));
    return;
  }
  // A pair: deliver_from_link runs protocol code (and may forward to
  // sibling links) as an ordinary engine event on this thread. Every
  // external link of this node shares the one IS-process, which is exactly
  // what makes the tree work: a pair arriving on link L is applied locally
  // and forwarded to every other link (split horizon).
  fed_->simulator().post([this, e, msg = std::move(msg)]() mutable {
    fed_->interconnector().external_isp(0).deliver_from_link(
        peers_[e].isp_link, std::move(msg));
    ++peers_[e].applied;
  });
}

void MeshNode::relay_stats(std::unique_ptr<net::wire::StatsFrame> frame) {
  // Send a snapshot toward node 0. While the parent's journal is full the
  // snapshots wait here, bounded: a long parent outage drops the oldest and
  // never pauses the engine. FIFO keeps children's snapshots older than ours.
  if (stats_parent_e_ == isc::Topology::npos) return;
  if (stats_relay_.size() >= 64) stats_relay_.pop_front();
  stats_relay_.push_back(std::move(frame));
  LinkSession& parent = *sessions_[stats_parent_e_];
  while (!stats_relay_.empty() && !parent.full()) {
    parent.send(std::move(stats_relay_.front()));
    stats_relay_.pop_front();
  }
}

void MeshNode::on_ready(std::uint32_t) {
  // Each connection gets its own loop reader and budget: a silent one delays
  // no handshake behind it.
  for (int fd = net::tcp_accept(listener_); fd >= 0;
       fd = net::tcp_accept(listener_)) {
    read_ctrl_on_loop(loop_, fd, kInboundFrameBudgetMs, std::nullopt,
                      [this](const char* err, int sock, const ControlMsg& msg) {
                        if (err == nullptr) answer_rejoin(sock, msg);
                      });
  }
}

void MeshNode::answer_rejoin(int fd, const ControlMsg& msg) {
  // Only a higher-id neighbor dials us; its session id is the whole check
  // (wire version, spec file, seed). A second handshake for a formed link
  // supersedes the first, as any rejoin does.
  std::uint64_t reject = kRejectNotANeighbor;
  for (std::size_t e = 0; e < neighbors_.size(); ++e) {
    if (neighbors_[e] != msg.a || neighbors_[e] < cfg_.node_id) continue;
    if (msg.code == ControlMsg::kRejoin &&
        msg.b == sessions_[e]->session_id())
      return sessions_[e]->accept_rejoin(fd, msg.c);
    reject = kRejectSessionMismatch;
  }
  send_ctrl_fd(fd, ControlMsg::kJoinReject, cfg_.node_id, reject);
  ::close(fd);
}

MeshResult MeshNode::run() {
  MeshResult result;
  CIM_CHECK_MSG(sessions_ready(), "run before a successful join");
  const std::size_t n_links = neighbors_.size();
  sim::Simulator& sim = fed_->simulator();

  wl::UniformConfig wc;
  wc.ops_per_process = cfg_.ops;
  wc.seed = cfg_.seed * 2 + cfg_.node_id;
  // Each generation writes a disjoint value range (header comment): the
  // checker's value-identifies-write premise survives restarts.
  wc.value_base = static_cast<Value>(cfg_.node_id * kNodeValues +
                                    generation() * kGenerationValues);
  auto runners = wl::install_uniform(*fed_, wc);

  // Snapshot of this node's session/transport gauges, keyed relative to the
  // node (the aggregator prefixes fed.node.<origin>.).
  auto sample_stats = [&]() {
    auto f = std::make_unique<net::wire::StatsFrame>();
    f->origin = cfg_.node_id;
    f->t_ns = static_cast<std::uint64_t>(steady_ns());
    auto put = [&f](std::string key, std::int64_t v) {
      f->entries.emplace_back(std::move(key), v);
    };
    put("generation", generation());
    std::int64_t bytes_out = 0;
    std::int64_t bytes_in = 0;
    for (std::size_t e = 0; e < n_links; ++e) {
      LinkSession& s = *sessions_[e];
      const std::string p = "peer." + std::to_string(neighbors_[e]) + ".";
      for (const auto& [key, v] : peer_counters(s)) put(p + key, v);
      put(p + "journal_depth", static_cast<std::int64_t>(s.backlog()));
      put(p + "rtt_ns", s.best_rtt_ns());
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
      agg_.fold(*sample_stats());
      if (!cfg_.fed_metrics_path.empty())
        agg_.write_json(cfg_.fed_metrics_path);
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
    return peers_[e].done && peers_[e].applied >= peers_[e].pairs;
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
      if (peers_[e].bye && !sessions_[e]->connected()) {
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
    if (link_failed()) return finish();
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
      if (!done_sent[e] || !bye_sent[e] || !peers_[e].bye) return;
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
    const LinkSession& s = *sessions_[e];
    const std::string p = "net.mesh." + std::to_string(neighbors_[e]) + ".";
    for (const auto& [key, v] : peer_counters(s)) m.gauge(p + key).set(v);
    // Heartbeat-derived RTT/clock alignment (schema v5, docs/OBSERVABILITY.md
    // "Link RTT and clock offsets").
    auto& rtt = m.value_histogram(p + "rtt_ns");
    for (std::int64_t v : s.rtt_samples()) rtt.observe(v);
    m.gauge(p + "rtt_best_ns").set(s.best_rtt_ns());
  }

  // Final federation snapshot: fold our own closing sample so the file node 0
  // leaves behind covers the full run even when the last cadence tick raced
  // shutdown.
  if (cfg_.stats_interval_ms > 0 && cfg_.node_id == 0 &&
      !cfg_.fed_metrics_path.empty()) {
    agg_.fold(*sample_stats());
    agg_.write_json(cfg_.fed_metrics_path);
  }

  for (const auto& r : runners) result.ops_done += r->steps_completed();
  if (n_links > 0) {
    const isc::IsProcess& isp = fed_->interconnector().external_isp(0);
    result.pairs_sent = isp.pairs_sent();
    result.pairs_received = isp.pairs_received();
  }
  result.violations =
      fed_->monitor() != nullptr ? fed_->monitor()->violation_count() : 0;
  result.ok = true;
  return result;
}

}  // namespace cim::mesh
