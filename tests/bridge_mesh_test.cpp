// Mesh formation and drain (src/mesh/mesh_node.h, docs/BRIDGE.md): topology
// spec validation, the kJoin handshake's rejection paths (duplicate join,
// impostor, diverging spec, peer death mid-handshake), a partial topology
// timing out cleanly, and a 5-system tree soak whose merged history passes
// the causal checker — Corollary 1 exercised over real localhost sockets.
//
// Ports: every test derives its base port from getpid() plus a per-test
// offset, because cim_tests and cim_tests_bytes_wire may run concurrently
// under ctest -j.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "checker/causal_checker.h"
#include "checker/history.h"
#include "helpers.h"
#include "interconnect/topology.h"
#include "mesh/ctrl_io.h"
#include "mesh/mesh_node.h"
#include "mesh/spill.h"
#include "net/fault_inject.h"
#include "net/tcp_link.h"
#include "net/wire.h"

namespace cim {
namespace {

using isc::Topology;
using net::wire::ControlMsg;

using test::test_port;

// ---- topology spec ---------------------------------------------------------

TEST(Topology, ParsesAndNormalizesASpec) {
  const auto res = isc::parse_topology(
      "# a 4-node tree\n"
      "nodes 4\n"
      "edge 1 0   # reversed on purpose\n"
      "edge 0 2\n"
      "edge 3 1\n");
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.topo.nodes, 4u);
  ASSERT_EQ(res.topo.edges.size(), 3u);
  EXPECT_EQ(res.topo.edges[0].a, 0u);  // normalized a < b, sorted
  EXPECT_EQ(res.topo.edges[0].b, 1u);
  EXPECT_EQ(res.topo.neighbors(1), (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(res.topo.degree(0), 2u);
  EXPECT_EQ(res.topo.edge_index(3, 1), 2u);
  EXPECT_EQ(res.topo.edge_index(2, 3), Topology::npos);
}

TEST(Topology, HashIsIndependentOfSpecOrder) {
  const auto a = isc::parse_topology("nodes 3\nedge 0 1\nedge 1 2\n");
  const auto b = isc::parse_topology("nodes 3\nedge 2 1\nedge 1 0\n");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.topo.hash(), b.topo.hash());
  const auto c = isc::parse_topology("nodes 3\nedge 0 1\nedge 0 2\n");
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.topo.hash(), c.topo.hash());  // chain vs star
}

TEST(Topology, RejectsEverythingThatIsNotATree) {
  EXPECT_FALSE(isc::parse_topology("nodes 0\n").ok());
  EXPECT_FALSE(isc::parse_topology("nodes 2\nedge 0 0\nedge 0 1\n").ok());
  EXPECT_FALSE(isc::parse_topology("nodes 2\nedge 0 2\n").ok());  // range
  EXPECT_FALSE(
      isc::parse_topology("nodes 3\nedge 0 1\nedge 1 0\n").ok());  // dup
  EXPECT_FALSE(isc::parse_topology("nodes 3\nedge 0 1\n").ok());  // too few
  EXPECT_FALSE(isc::parse_topology(
                   "nodes 4\nedge 0 1\nedge 1 2\nedge 2 0\n")
                   .ok());  // cycle -> node 3 unreachable
  EXPECT_FALSE(isc::parse_topology("nodes 2\nbogus 1\n").ok());
  EXPECT_FALSE(isc::parse_topology("edge 0 1\n").ok());  // missing nodes
  EXPECT_FALSE(isc::parse_topology("nodes 2\nedge 0 1 9\n").ok());  // extra
}

TEST(Topology, GeneratorsProduceValidTrees) {
  for (std::size_t n : {1u, 2u, 5u, 8u}) {
    for (auto* make : {isc::make_chain, isc::make_star, isc::make_btree}) {
      const auto res = isc::validate_topology(make(n));
      EXPECT_TRUE(res.ok()) << res.error;
      EXPECT_EQ(res.topo.edges.size(), n - 1);
    }
  }
  EXPECT_EQ(isc::make_btree(7).degree(1), 3u);  // root-facing + two children
  // format() round-trips through parse().
  const Topology t = isc::make_btree(6);
  const auto back = isc::parse_topology(t.format());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.topo.hash(), t.hash());
}

// ---- raw handshake helpers for the rejection tests -------------------------

void send_ctrl(int fd, std::uint8_t code, std::uint64_t a, std::uint64_t b) {
  ControlMsg msg;
  msg.code = code;
  msg.a = a;
  msg.b = b;
  std::vector<std::uint8_t> buf;
  net::wire::encode(msg, buf);
  ASSERT_EQ(::send(fd, buf.data(), buf.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(buf.size()));
}

ControlMsg recv_ctrl(int fd) {
  std::uint8_t frame[64];
  EXPECT_EQ(::read(fd, frame, 4), 4);
  std::uint32_t body = 0;
  for (int i = 0; i < 4; ++i)
    body |= static_cast<std::uint32_t>(frame[i]) << (8 * i);
  EXPECT_LE(body, sizeof(frame) - 4);
  std::size_t got = 0;
  while (got < body) {
    const ssize_t n = ::read(fd, frame + 4 + got, body - got);
    if (n <= 0) {
      ADD_FAILURE() << "peer closed mid-frame";
      return {};
    }
    got += static_cast<std::size_t>(n);
  }
  auto res = net::wire::decode(frame, 4 + body);
  EXPECT_TRUE(res.ok()) << res.error;
  auto* ctrl = dynamic_cast<ControlMsg*>(res.msg.get());
  EXPECT_NE(ctrl, nullptr);
  return *ctrl;
}

// Complete a valid dialer-side handshake claiming `node_id`.
void handshake_as(int fd, std::uint64_t node_id, std::uint64_t hash) {
  send_ctrl(fd, ControlMsg::kHello, node_id, net::wire::kWireVersion);
  send_ctrl(fd, ControlMsg::kJoin, node_id, hash);
  const ControlMsg hello = recv_ctrl(fd);
  EXPECT_EQ(hello.code, ControlMsg::kHello);
  const ControlMsg join = recv_ctrl(fd);
  EXPECT_EQ(join.code, ControlMsg::kJoin);
}

// ---- join protocol edge cases ----------------------------------------------

TEST(MeshJoin, DuplicateJoinIsRejected) {
  const std::uint16_t base = test_port(0);
  mesh::MeshConfig cfg;
  cfg.node_id = 0;
  cfg.topo = isc::make_star(3);  // node 0 awaits joins from 1 and 2
  cfg.base_port = base;
  cfg.join_timeout_ms = 10'000;
  mesh::MeshNode node(std::move(cfg));
  std::thread joiner([&] { EXPECT_TRUE(node.join()) << node.error(); });

  const std::uint64_t hash = isc::make_star(3).hash();
  const int first = net::tcp_connect("127.0.0.1", base, 100);
  handshake_as(first, 1, hash);

  const int dup = net::tcp_connect("127.0.0.1", base, 100);
  send_ctrl(dup, ControlMsg::kHello, 1, net::wire::kWireVersion);
  send_ctrl(dup, ControlMsg::kJoin, 1, hash);
  const ControlMsg rej = recv_ctrl(dup);
  EXPECT_EQ(rej.code, ControlMsg::kJoinReject);
  EXPECT_EQ(rej.a, 0u);  // rejecting node
  ::close(dup);

  const int second = net::tcp_connect("127.0.0.1", base, 100);
  handshake_as(second, 2, hash);
  joiner.join();
  EXPECT_EQ(node.degree(), 2u);
  ::close(first);
  ::close(second);
}

TEST(MeshJoin, ImpostorAndDivergingSpecAreRejected) {
  const std::uint16_t base = test_port(10);
  mesh::MeshConfig cfg;
  cfg.node_id = 0;
  cfg.topo = isc::make_chain(2);
  cfg.base_port = base;
  cfg.join_timeout_ms = 10'000;
  mesh::MeshNode node(std::move(cfg));
  std::thread joiner([&] { EXPECT_TRUE(node.join()) << node.error(); });

  const std::uint64_t hash = isc::make_chain(2).hash();
  // Not a neighbor: node 7 does not exist in a 2-chain.
  const int impostor = net::tcp_connect("127.0.0.1", base, 100);
  send_ctrl(impostor, ControlMsg::kHello, 7, net::wire::kWireVersion);
  send_ctrl(impostor, ControlMsg::kJoin, 7, hash);
  EXPECT_EQ(recv_ctrl(impostor).code, ControlMsg::kJoinReject);
  ::close(impostor);

  // Right node id, wrong topology hash (diverging spec files).
  const int diverged = net::tcp_connect("127.0.0.1", base, 100);
  send_ctrl(diverged, ControlMsg::kHello, 1, net::wire::kWireVersion);
  send_ctrl(diverged, ControlMsg::kJoin, 1, hash ^ 1);
  EXPECT_EQ(recv_ctrl(diverged).code, ControlMsg::kJoinReject);
  ::close(diverged);

  const int real = net::tcp_connect("127.0.0.1", base, 100);
  handshake_as(real, 1, hash);
  joiner.join();
  ::close(real);
}

TEST(MeshJoin, PeerDyingMidHandshakeDoesNotPoisonTheJoin) {
  const std::uint16_t base = test_port(20);
  mesh::MeshConfig cfg;
  cfg.node_id = 0;
  cfg.topo = isc::make_chain(2);
  cfg.base_port = base;
  cfg.join_timeout_ms = 8'000;
  mesh::MeshNode node(std::move(cfg));
  std::thread joiner([&] { EXPECT_TRUE(node.join()) << node.error(); });

  // Connect, say half a handshake, die.
  const int dying = net::tcp_connect("127.0.0.1", base, 100);
  send_ctrl(dying, ControlMsg::kHello, 1, net::wire::kWireVersion);
  ::close(dying);

  const int real = net::tcp_connect("127.0.0.1", base, 100);
  handshake_as(real, 1, isc::make_chain(2).hash());
  joiner.join();
  ::close(real);
}

TEST(MeshJoin, PartialTopologyTimesOutCleanly) {
  const std::uint16_t base = test_port(30);
  mesh::MeshConfig cfg;
  cfg.node_id = 0;
  cfg.topo = isc::make_star(3);
  cfg.base_port = base;
  cfg.join_timeout_ms = 400;  // nobody will ever dial: the leaves are missing
  mesh::MeshNode node(std::move(cfg));
  EXPECT_FALSE(node.join());
  EXPECT_NE(node.error().find("timed out"), std::string::npos) << node.error();
  EXPECT_NE(node.error().find("1"), std::string::npos);  // names the missing
  EXPECT_NE(node.error().find("2"), std::string::npos);
}

TEST(MeshJoin, DialerLearnsWhyItWasRejected) {
  const std::uint16_t base = test_port(40);
  // A 3-chain's node 1 dials node 0 — but node 0 was launched with a star,
  // so the topology hashes diverge and node 0 rejects.
  mesh::MeshConfig cfg0;
  cfg0.node_id = 0;
  cfg0.topo = isc::make_star(3);
  cfg0.base_port = base;
  cfg0.join_timeout_ms = 1'000;
  mesh::MeshNode node0(std::move(cfg0));
  std::thread joiner([&] { EXPECT_FALSE(node0.join()); });

  mesh::MeshConfig cfg1;
  cfg1.node_id = 1;
  cfg1.topo = isc::make_chain(3);
  cfg1.base_port = base;
  cfg1.join_timeout_ms = 1'000;
  mesh::MeshNode node1(std::move(cfg1));
  EXPECT_FALSE(node1.join());
  EXPECT_NE(node1.error().find("topology hash mismatch"), std::string::npos)
      << node1.error();
  joiner.join();
}

// ---- the 5-system tree soak ------------------------------------------------

TEST(MeshSoak, FiveSystemTreeMergedHistoryIsCausal) {
  //        0
  //       / \
  //      1   2
  //     / \
  //    3   4
  const auto spec = isc::parse_topology(
      "nodes 5\nedge 0 1\nedge 0 2\nedge 1 3\nedge 1 4\n");
  ASSERT_TRUE(spec.ok()) << spec.error;
  const std::uint16_t base = test_port(50);

  std::vector<std::unique_ptr<mesh::MeshNode>> nodes;
  for (std::size_t i = 0; i < 5; ++i) {
    mesh::MeshConfig cfg;
    cfg.node_id = i;
    cfg.topo = spec.topo;
    cfg.base_port = base;
    cfg.procs = 3;
    cfg.ops = 12;
    cfg.seed = 11;
    cfg.join_timeout_ms = 20'000;
    nodes.push_back(std::make_unique<mesh::MeshNode>(std::move(cfg)));
  }

  std::vector<mesh::MeshResult> results(5);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 5; ++i) {
    threads.emplace_back([&, i] {
      if (nodes[i]->join()) results[i] = nodes[i]->run();
    });
  }
  for (auto& t : threads) t.join();

  std::vector<chk::Op> merged;
  std::uint64_t total_sent = 0, total_received = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(results[i].ok) << "node " << i << ": " << nodes[i]->error();
    EXPECT_EQ(results[i].ops_done, 3u * 12u);
    EXPECT_EQ(results[i].violations, 0u);
    total_sent += results[i].pairs_sent;
    total_received += results[i].pairs_received;
    const chk::History h = nodes[i]->federation().federation_history();
    for (std::size_t k = 0; k < h.size(); ++k) merged.push_back(h.op(k));
  }
  // Every pair sent anywhere was received somewhere: the tree drained.
  EXPECT_EQ(total_sent, total_received);

  const chk::History history{std::move(merged)};
  EXPECT_EQ(history.size(), 5u * 3u * 12u);
  const auto verdict =
      chk::CausalChecker{}.check(history, chk::Level::kCM);
  EXPECT_TRUE(verdict.ok()) << verdict.detail;
}

// ---- clean termination -----------------------------------------------------

TEST(MeshDrain, CleanTerminationNeedsNoRedialAndNoGraceWait) {
  // Each side closes its socket as soon as its own journal drains. The last
  // done/bye on the edge must therefore be acked at once, not by the next
  // heartbeat: otherwise its sender sees the EOF with that frame unacked and
  // either re-dials (a resume) or ends degraded after the rejoin grace
  // window. Several reps, because which side drains first is a race.
  for (std::uint16_t rep = 0; rep < 5; ++rep) {
    std::vector<std::unique_ptr<mesh::MeshNode>> nodes;
    for (std::size_t i = 0; i < 2; ++i) {
      mesh::MeshConfig cfg;
      cfg.node_id = i;
      cfg.topo = isc::make_chain(2);
      cfg.base_port = test_port(static_cast<std::uint16_t>(140 + 2 * rep));
      cfg.procs = 2;
      cfg.ops = 200;
      cfg.seed = 3 + rep;
      cfg.join_timeout_ms = 20'000;
      nodes.push_back(std::make_unique<mesh::MeshNode>(std::move(cfg)));
    }
    std::vector<mesh::MeshResult> results(2);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < 2; ++i) {
      threads.emplace_back([&, i] {
        if (nodes[i]->join()) results[i] = nodes[i]->run();
      });
    }
    for (auto& t : threads) t.join();
    for (std::size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(results[i].ok) << "rep " << rep << " node " << i << ": "
                                 << nodes[i]->error();
      const mesh::LinkSession& s = nodes[i]->session(0);
      EXPECT_EQ(s.resumes(), 0u) << "rep " << rep << " node " << i;
      EXPECT_FALSE(s.down()) << "rep " << rep << " node " << i;
    }
    EXPECT_EQ(nodes[0]->session(0).data_sent(),
              nodes[1]->session(0).data_delivered());
    EXPECT_EQ(nodes[1]->session(0).data_sent(),
              nodes[0]->session(0).data_delivered());
  }
}

TEST(MeshDrain, OneWayFlowIsAckedWithoutWaitingForAHeartbeat) {
  // Node 1 runs no workload, so it has no data frames to piggyback acks on,
  // and node 0 sends more pairs than one session journal holds (4096
  // frames). Unless node 1 acks on its own as its receive cursor advances,
  // node 0's engine sits on the full journal until node 1's next heartbeat,
  // a full interval away, once per fill. The interval is long so the bound
  // below holds with room to spare under the sanitizers.
  constexpr int kHeartbeatMs = 20'000;
  std::vector<std::unique_ptr<mesh::MeshNode>> nodes;
  for (std::size_t i = 0; i < 2; ++i) {
    mesh::MeshConfig cfg;
    cfg.node_id = i;
    cfg.topo = isc::make_chain(2);
    cfg.base_port = test_port(150);
    cfg.procs = 4;
    cfg.ops = i == 0 ? 3000 : 0;
    cfg.seed = 13;
    cfg.join_timeout_ms = 20'000;
    cfg.hb_interval_ms = kHeartbeatMs;
    nodes.push_back(std::make_unique<mesh::MeshNode>(std::move(cfg)));
  }
  std::vector<mesh::MeshResult> results(2);
  std::vector<std::int64_t> run_ms(2, 0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      if (!nodes[i]->join()) return;
      const auto t0 = std::chrono::steady_clock::now();
      results[i] = nodes[i]->run();
      run_ms[i] = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(results[i].ok) << "node " << i << ": " << nodes[i]->error();
    EXPECT_LT(run_ms[i], kHeartbeatMs / 4) << "node " << i;
  }
  EXPECT_GT(nodes[0]->session(0).data_sent(), 4096u);
  EXPECT_EQ(nodes[1]->session(0).data_sent(), 0u);
  EXPECT_EQ(nodes[0]->session(0).data_sent(),
            nodes[1]->session(0).data_delivered());
}

// ---- socket-level chaos (src/net/fault_inject.h, docs/FAULTS.md) -----------
//
// Each test runs a real 2-node mesh over localhost with deterministic fault
// hooks on one node and asserts the crash-tolerance contract: the mesh still
// drains, the merged history is causal, and the per-edge data counters agree
// (zero duplicated, zero lost pair deliveries).

struct ChaosMesh {
  std::vector<std::unique_ptr<mesh::MeshNode>> nodes;
  std::vector<mesh::MeshResult> results;
  std::vector<std::thread> threads;

  // A 2-chain: node 0 accepts, node 1 dials (and re-dials on outages).
  ChaosMesh(std::uint16_t base, net::FaultHooks* faults_on_1,
            std::size_t ops = 40, net::FaultHooks* faults_on_0 = nullptr) {
    for (std::size_t i = 0; i < 2; ++i) {
      mesh::MeshConfig cfg;
      cfg.node_id = i;
      cfg.topo = isc::make_chain(2);
      cfg.base_port = base;
      cfg.procs = 2;
      cfg.ops = ops;
      cfg.seed = 5;
      cfg.join_timeout_ms = 20'000;
      cfg.hb_interval_ms = 20;
      cfg.liveness_timeout_ms = 150;
      cfg.backoff_initial_ms = 20;
      cfg.backoff_max_ms = 100;
      cfg.faults = i == 1 ? faults_on_1 : faults_on_0;
      nodes.push_back(std::make_unique<mesh::MeshNode>(std::move(cfg)));
    }
    results.resize(2);
    for (std::size_t i = 0; i < 2; ++i) {
      threads.emplace_back([this, i] {
        if (nodes[i]->join()) results[i] = nodes[i]->run();
      });
    }
  }

  void wait_ready() {
    while (!nodes[0]->sessions_ready() || !nodes[1]->sessions_ready())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Join the node threads, then assert drain + causality + zero dup/loss.
  void finish_and_check() {
    for (auto& t : threads) t.join();
    std::vector<chk::Op> merged;
    for (std::size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(results[i].ok) << "node " << i << ": " << nodes[i]->error();
      EXPECT_EQ(results[i].violations, 0u);
      const chk::History h = nodes[i]->federation().federation_history();
      for (std::size_t k = 0; k < h.size(); ++k) merged.push_back(h.op(k));
    }
    // The zero-dup/zero-loss contract, stated on the session counters: every
    // data frame one side ever sent (journaled, maybe replayed) was applied
    // exactly once on the other.
    EXPECT_EQ(nodes[0]->session(0).data_sent(),
              nodes[1]->session(0).data_delivered());
    EXPECT_EQ(nodes[1]->session(0).data_sent(),
              nodes[0]->session(0).data_delivered());
    const auto verdict =
        chk::CausalChecker{}.check(chk::History{std::move(merged)},
                                   chk::Level::kCM);
    EXPECT_TRUE(verdict.ok()) << verdict.detail;
  }
};

// Spin until `pred`, failing the test (and returning false) after `budget`.
template <typename Pred>
bool spin_until(Pred pred, std::chrono::milliseconds budget =
                               std::chrono::milliseconds(10'000)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "spin_until timed out";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(MeshChaos, InjectedReadFailureReconnectsWithZeroDupZeroLoss) {
  // Hold the mesh open with a stall (node 0 keeps heartbeating at node 1),
  // then reset node 1's receive side mid-stream — indistinguishable from a
  // peer RST mid-frame. The transport dies, the session retires it, re-dials
  // with backoff, and the kRejoin replay restores the stream.
  net::FaultHooks hooks;
  hooks.stall_writes.store(true);
  ChaosMesh mesh(test_port(60), &hooks);
  mesh.wait_ready();
  hooks.fail_reads_after.store(2);
  // The countdown sticks at 0 once spent; node 0's next heartbeat burns it.
  ASSERT_TRUE(spin_until([&] { return hooks.fail_reads_after.load() == 0; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hooks.fail_reads_after.store(-1);
  hooks.stall_writes.store(false);
  mesh.finish_and_check();
  EXPECT_GE(mesh.nodes[1]->session(0).resumes(), 1u);
}

TEST(MeshChaos, InjectedWriteFailureReconnectsWithZeroDupZeroLoss) {
  // Arm the countdown before the mesh even forms: node 1's first transport
  // flush spends it and the very next write fails, mid-workload — as if the
  // peer reset under a partial writev. With most of the stream still
  // undelivered, the mesh cannot drain without a real reconnect + replay.
  net::FaultHooks hooks;
  hooks.fail_writes_after.store(1);
  ChaosMesh mesh(test_port(70), &hooks);
  mesh.wait_ready();
  ASSERT_TRUE(spin_until([&] { return hooks.fail_writes_after.load() == 0; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hooks.fail_writes_after.store(-1);
  mesh.finish_and_check();
  EXPECT_GE(mesh.nodes[1]->session(0).resumes(), 1u);
}

TEST(MeshChaos, ClampedPartialWritesTearFramesButNothingBreaks) {
  // Every send syscall on node 1 moves at most 7 bytes: frames tear between
  // the length prefix and the payload, across payloads, everywhere. The
  // receive parser reassembles; the mesh drains normally.
  net::FaultHooks hooks;
  hooks.max_write_bytes.store(7);
  ChaosMesh mesh(test_port(80), &hooks, /*ops=*/25);
  mesh.finish_and_check();
  EXPECT_GE(mesh.nodes[1]->session(0).syscalls_write(), 50u);
}

TEST(MeshChaos, StalledPeerDegradesWithBackpressureThenRecovers) {
  // The SIGSTOP scenario, deterministically: node 1's transport pretends the
  // kernel buffer is full — no data, no heartbeats, queues build, node 0's
  // senders block on the bounded journal. Node 0 must flip the link degraded
  // (hb_miss rising) and must NOT fail; clearing the stall recovers it.
  // Node 0 is stalled too, for the whole observation: its own silence keeps
  // the run from draining, so node 0's ticks are still firing when node 1's
  // bytes come back — the degraded -> up flip is observable, not racing the
  // mesh's completion.
  net::FaultHooks hooks1;
  net::FaultHooks hooks0;
  hooks1.stall_writes.store(true);
  hooks0.stall_writes.store(true);
  ChaosMesh mesh(test_port(90), &hooks1, /*ops=*/40, &hooks0);
  mesh.wait_ready();
  mesh::LinkSession& seen_by_0 = mesh.nodes[0]->session(0);
  ASSERT_TRUE(spin_until(
      [&] { return seen_by_0.down() && seen_by_0.hb_miss() > 0; }));
  EXPECT_EQ(seen_by_0.state(), mesh::LinkState::kDegraded);
  EXPECT_EQ(seen_by_0.error(), nullptr);
  hooks1.stall_writes.store(false);
  // Node 1's heartbeats resume; node 0 (still stalled, still ticking) must
  // flip its link back up and count the resume while the run is provably
  // still in flight.
  ASSERT_TRUE(spin_until([&] { return !seen_by_0.down(); }));
  EXPECT_GE(seen_by_0.resumes(), 1u);  // degraded -> up counts as a resume
  hooks0.stall_writes.store(false);
  mesh.finish_and_check();
  EXPECT_GE(seen_by_0.hb_miss(), 1u);
}

TEST(MeshChaos, StrayConnectionsMidRunAreRefusedAsStale) {
  // Hold the run open with a stall, then poke node 0's listener: a rejoin
  // with an unknown session id, a fresh hello for an already-formed mesh,
  // and a torn control frame (EOF between length prefix and payload). All
  // are refused/ignored; the mesh finishes untouched.
  net::FaultHooks hooks;
  hooks.stall_writes.store(true);
  const std::uint16_t base = test_port(100);
  ChaosMesh mesh(base, &hooks);
  mesh.wait_ready();

  ControlMsg bogus;
  bogus.code = ControlMsg::kRejoin;
  bogus.a = 1;
  bogus.b = 0x5E5510;  // no such session
  bogus.c = 7;
  const int rj = net::tcp_connect("127.0.0.1", base, 100);
  ASSERT_TRUE(mesh::send_ctrl_fd(rj, bogus));
  ControlMsg rej = recv_ctrl(rj);
  EXPECT_EQ(rej.code, ControlMsg::kJoinReject);
  EXPECT_EQ(rej.b, mesh::kRejectStaleSession);
  ::close(rj);

  const int hello = net::tcp_connect("127.0.0.1", base, 100);
  send_ctrl(hello, ControlMsg::kHello, 1, net::wire::kWireVersion);
  rej = recv_ctrl(hello);
  EXPECT_EQ(rej.code, ControlMsg::kJoinReject);
  EXPECT_EQ(rej.b, mesh::kRejectStaleSession);
  ::close(hello);

  const int torn = net::tcp_connect("127.0.0.1", base, 100);
  const std::uint8_t prefix[4] = {32, 0, 0, 0};  // promises a 32-byte body…
  ASSERT_EQ(::send(torn, prefix, 4, MSG_NOSIGNAL), 4);
  ::close(torn);  // …and dies before sending it

  hooks.stall_writes.store(false);
  mesh.finish_and_check();
}

TEST(MeshChaos, SilentConnectionsDoNotDelayARejoin) {
  // Three connections to node 0's listener that never say a word, then a
  // reset of node 1's receive side. Each connection has its own read budget
  // on node 0's loop, so node 1's rejoin is answered at once instead of
  // queueing behind them; each silent socket is closed when its budget ends.
  net::FaultHooks hooks;
  hooks.stall_writes.store(true);
  const std::uint16_t base = test_port(160);
  ChaosMesh mesh(base, &hooks);
  mesh.wait_ready();

  const auto opened = std::chrono::steady_clock::now();
  std::vector<int> silent;
  for (int i = 0; i < 3; ++i)
    silent.push_back(net::tcp_connect("127.0.0.1", base, 100));
  mesh::LinkSession& dialer = mesh.nodes[1]->session(0);
  hooks.fail_reads_after.store(0);  // node 1's next read fails
  ASSERT_TRUE(spin_until(
      [&] { return !dialer.connected() || dialer.resumes() >= 1; }));
  hooks.fail_reads_after.store(-1);
  EXPECT_TRUE(spin_until([&] { return dialer.resumes() >= 1; },
                         std::chrono::milliseconds(1'000)));

  for (int fd : silent) {
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char byte = 0;
    EXPECT_EQ(::read(fd, &byte, 1), 0);  // EOF: node 0 gave up on it
    EXPECT_GE(std::chrono::steady_clock::now() - opened,
              std::chrono::milliseconds(900));
    ::close(fd);
  }
  hooks.stall_writes.store(false);
  mesh.finish_and_check();
  EXPECT_GE(mesh.nodes[0]->session(0).resumes(), 1u);
}

// ---- introspection from other threads --------------------------------------

// What a foreign thread reads of one session: every any-thread accessor.
struct SessionView {
  std::uint64_t data_sent = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t hb_miss = 0;
  std::uint64_t resumes = 0;
  std::uint64_t dup_drops = 0;
  std::size_t backlog = 0;
  mesh::LinkState state = mesh::LinkState::kUp;
  bool down = false;
  bool connected = false;

  static SessionView read(const mesh::LinkSession& s) {
    EXPECT_EQ(s.error(), nullptr);
    return {s.data_sent(), s.data_delivered(), s.hb_miss(), s.resumes(),
            s.dup_drops(), s.backlog(),        s.state(),   s.down(),
            s.connected()};
  }
  bool operator==(const SessionView&) const = default;
};

TEST(MeshIntrospection, ForeignReadersSeeMonotoneCountersMidRun) {
  // A session is a single-thread object; other threads read it only through
  // the relaxed mirrors its loop publishes. A poller at ~1 kHz (perfbench's
  // cadence) reads every one of them through a run that takes a mid-stream
  // read fault: no counter may go backwards, and the last poll, taken after
  // run() returned, must see exactly what the owner sees.
  net::FaultHooks hooks;
  hooks.fail_reads_after.store(8);  // node 1's 9th transport read fails
  ChaosMesh mesh(test_port(180), &hooks, /*ops=*/1500);
  mesh.wait_ready();

  std::atomic<bool> stop{false};
  std::vector<SessionView> last(2);
  int polls = 0;
  std::thread poller([&] {
    bool final_poll = false;
    while (!final_poll) {
      final_poll = stop.load();
      for (std::size_t i = 0; i < 2; ++i) {
        const SessionView v = SessionView::read(mesh.nodes[i]->session(0));
        EXPECT_GE(v.data_sent, last[i].data_sent) << "node " << i;
        EXPECT_GE(v.data_delivered, last[i].data_delivered) << "node " << i;
        EXPECT_GE(v.hb_miss, last[i].hb_miss) << "node " << i;
        EXPECT_GE(v.resumes, last[i].resumes) << "node " << i;
        EXPECT_GE(v.dup_drops, last[i].dup_drops) << "node " << i;
        last[i] = v;
      }
      ++polls;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // The countdown sticks at 0 once the failing read has been reached; clear
  // it once node 1's session has seen the death, so the rejoin holds.
  mesh::LinkSession& dialer = mesh.nodes[1]->session(0);
  const bool faulted =
      spin_until([&] { return hooks.fail_reads_after.load() == 0; }) &&
      spin_until([&] { return !dialer.connected() || dialer.resumes() >= 1; });
  hooks.fail_reads_after.store(-1);
  for (auto& t : mesh.threads) t.join();
  mesh.threads.clear();
  stop.store(true);
  poller.join();
  ASSERT_TRUE(faulted);

  EXPECT_GE(polls, 10);
  EXPECT_GE(dialer.resumes(), 1u);  // the fault hit mid-run
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(last[i], SessionView::read(mesh.nodes[i]->session(0)))
        << "node " << i;
  mesh.finish_and_check();
}

// ---- threads of a running node ---------------------------------------------

std::size_t task_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(MeshThreads, ANodeRunsOnItsLoopThreadAlone) {
  // A 2-chain held open mid-run by a write stall: each node is one thread,
  // its runner, which runs the node's EpollLoop — the listener and the
  // rejoin dials run on the loop, not on threads of their own.
  const std::size_t before = task_count();
  net::FaultHooks hooks;
  hooks.stall_writes.store(true);
  ChaosMesh mesh(test_port(170), &hooks);
  mesh.wait_ready();
  EXPECT_EQ(task_count(), before + 2 /*runners, each its node's loop*/);
  hooks.stall_writes.store(false);
  mesh.finish_and_check();
}

// ---- spill journal (src/mesh/spill.h) --------------------------------------

TEST(Spill, RoundTripsCursorsFramesAndCtrlFlags) {
  const std::string path =
      "/tmp/cim_spill_test_" + std::to_string(::getpid()) + ".journal";
  mesh::SpillState st;
  st.node_id = 3;
  st.topo_hash = 0xABCD;
  st.seed = 11;
  st.generation = 1;
  st.links.resize(2);
  mesh::SpillJournal j;
  ASSERT_TRUE(j.create(path, st));

  // Two sent frames on link 0, the first later acked away.
  for (std::uint64_t seq : {0u, 1u}) {
    net::TransportFrame f;
    f.seq = seq;
    f.ack = 0;
    auto pay = std::make_unique<ControlMsg>();
    pay->code = ControlMsg::kDone;
    pay->a = 40 + seq;
    f.payload = std::move(pay);
    std::vector<std::uint8_t> buf;
    net::wire::encode(f, buf);
    j.record_sent(0, /*data_sent=*/seq + 1, buf.data(), buf.size());
  }
  j.record_acked(0, 1);
  j.record_delivered(1, 5, 4);
  j.record_ctrl_delivered(1, ControlMsg::kDone, 123);
  j.record_ctrl_sent(0, ControlMsg::kDone);
  j.close();

  mesh::SpillState back;
  std::string err;
  ASSERT_TRUE(mesh::SpillJournal::load(path, back, err)) << err;
  EXPECT_EQ(back.node_id, 3u);
  EXPECT_EQ(back.topo_hash, 0xABCDu);
  EXPECT_EQ(back.seed, 11u);
  EXPECT_EQ(back.generation, 1u);
  ASSERT_EQ(back.links.size(), 2u);
  EXPECT_EQ(back.links[0].acked, 1u);
  EXPECT_EQ(back.links[0].send_next, 2u);
  EXPECT_EQ(back.links[0].data_sent, 2u);
  ASSERT_EQ(back.links[0].frames.size(), 1u);  // seq 0 trimmed by the ack
  EXPECT_TRUE(back.links[0].done_sent);
  EXPECT_EQ(back.links[1].recv_expected, 5u);
  EXPECT_EQ(back.links[1].data_delivered, 4u);
  EXPECT_TRUE(back.links[1].peer_done);
  EXPECT_EQ(back.links[1].peer_pairs, 123u);

  // The surviving frame decodes back to the original payload.
  const auto& bytes = back.links[0].frames[0];
  const auto res = net::wire::decode(bytes.data(), bytes.size());
  ASSERT_TRUE(res.ok()) << res.error;
  ::unlink(path.c_str());
}

TEST(Spill, ToleratesATornTailRecord) {
  const std::string path =
      "/tmp/cim_spill_torn_" + std::to_string(::getpid()) + ".journal";
  mesh::SpillState st;
  st.node_id = 0;
  st.links.resize(1);
  {
    mesh::SpillJournal j;
    ASSERT_TRUE(j.create(path, st));
    j.record_delivered(0, 9, 9);
    j.record_acked(0, 4);
    j.close();
  }
  // Chop bytes off the tail: a crash mid-append. Every truncation point must
  // still load, keeping the intact prefix.
  std::ifstream is(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  is.close();
  for (std::size_t cut = 1; cut <= 8 && cut < bytes.size(); ++cut) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() - cut));
    os.close();
    mesh::SpillState back;
    std::string err;
    ASSERT_TRUE(mesh::SpillJournal::load(path, back, err))
        << "cut=" << cut << ": " << err;
    EXPECT_EQ(back.links[0].recv_expected, 9u) << "cut=" << cut;
  }
  ::unlink(path.c_str());
}

TEST(MeshResume, RefusesAJournalWhoseTerminationAlreadyBegan) {
  const std::string path =
      "/tmp/cim_spill_done_" + std::to_string(::getpid()) + ".journal";
  mesh::SpillState st;
  st.node_id = 0;
  st.topo_hash = isc::make_chain(2).hash();
  st.seed = 7;
  st.links.resize(1);
  st.links[0].done_sent = true;  // the convergecast had started
  {
    mesh::SpillJournal j;
    ASSERT_TRUE(j.create(path, st));
  }
  mesh::MeshConfig cfg;
  cfg.node_id = 0;
  cfg.topo = isc::make_chain(2);
  cfg.base_port = test_port(110);
  cfg.seed = 7;
  cfg.state_path = path;
  cfg.resume = true;
  mesh::MeshNode node(std::move(cfg));
  EXPECT_FALSE(node.join());
  EXPECT_NE(node.error().find("termination"), std::string::npos)
      << node.error();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace cim
