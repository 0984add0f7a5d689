// Mesh formation and drain (src/mesh/mesh_node.h, docs/BRIDGE.md): topology
// spec validation, the one link handshake's refusals (impostor, diverging
// spec, mismatched seed) and its tolerance of dying, silent and superseding
// peers, a partial topology timing out cleanly, and a 5-system tree soak
// whose merged history passes the causal checker — Corollary 1 exercised
// over real localhost sockets.
//
// Ports: every test derives its base port from getpid() plus a per-test
// offset, because cim_tests and cim_tests_bytes_wire may run concurrently
// under ctest -j.
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
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
#include "checker/trace_io.h"
#include "helpers.h"
#include "interconnect/pair_msg.h"
#include "interconnect/topology.h"
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

// ---- real 2-node meshes (src/net/fault_inject.h, docs/FAULTS.md) ----------
//
// Each chaos test runs a real 2-node mesh over localhost with deterministic fault
// hooks on one node and asserts the crash-tolerance contract: the mesh still
// drains, the merged history is causal, and the per-edge data counters agree
// (zero duplicated, zero lost pair deliveries).

struct ChaosMesh {
  std::vector<std::unique_ptr<mesh::MeshNode>> nodes;
  std::vector<mesh::MeshResult> results;
  std::vector<std::thread> threads;

  static constexpr std::uint64_t kSeed = 5;

  // A 2-chain: node 0 accepts, node 1 dials (and re-dials on outages). With
  // `start_both` unset, each node's thread waits for start(i).
  ChaosMesh(std::uint16_t base, net::FaultHooks* faults_on_1,
            std::size_t ops = 40, net::FaultHooks* faults_on_0 = nullptr,
            bool start_both = true) {
    for (std::size_t i = 0; i < 2; ++i) {
      mesh::MeshConfig cfg;
      cfg.node_id = i;
      cfg.topo = isc::make_chain(2);
      cfg.base_port = base;
      cfg.procs = 2;
      cfg.ops = ops;
      cfg.seed = kSeed;
      cfg.join_timeout_ms = 20'000;
      cfg.timing.hb_interval_ms = 20;
      cfg.timing.liveness_timeout_ms = 150;
      cfg.timing.backoff_initial_ms = 20;
      cfg.timing.backoff_max_ms = 100;
      cfg.faults = i == 1 ? faults_on_1 : faults_on_0;
      nodes.push_back(std::make_unique<mesh::MeshNode>(std::move(cfg)));
    }
    results.resize(2);
    if (start_both) {
      start(0);
      start(1);
    }
  }

  // Join and run node `i` on a thread of its own.
  void start(std::size_t i) {
    threads.emplace_back([this, i] {
      if (nodes[i]->join()) results[i] = nodes[i]->run();
    });
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

// ---- raw handshake helpers for the refusal tests ---------------------------

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

// A dialer's handshake for a fresh link: node `node_id` offers `session` at
// delivery cursor 0.
ControlMsg rejoin_at_zero(std::uint64_t node_id, std::uint64_t session) {
  ControlMsg msg;
  msg.code = ControlMsg::kRejoin;
  msg.a = node_id;
  msg.b = session;
  return msg;
}

// Offer `session` as node `node_id`; return the acceptor's answer.
ControlMsg offer(int fd, std::uint64_t node_id, std::uint64_t session) {
  EXPECT_TRUE(test::send_ctrl_fd(fd, rejoin_at_zero(node_id, session)));
  return recv_ctrl(fd);
}

// Complete a valid dialer-side handshake claiming `node_id`.
void handshake_as(int fd, std::uint64_t node_id, std::uint64_t session) {
  const ControlMsg reply = offer(fd, node_id, session);
  EXPECT_EQ(reply.code, ControlMsg::kRejoin);
  EXPECT_EQ(reply.b, session);
  EXPECT_EQ(reply.c, 0u);  // a fresh acceptor has delivered nothing
}

// Read `fd` until EOF (true) or an error or `timeout_s` of silence (false).
bool reads_to_eof(int fd, int timeout_s) {
  timeval tv{};
  tv.tv_sec = timeout_s;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) return true;
    if (n < 0) return false;
  }
}

// ---- link formation --------------------------------------------------------

TEST(MeshJoin, SecondHandshakeSupersedesTheFirst) {
  // A fake node 1 forms node 0's link and goes quiet; node 0 runs its
  // workload into it. Then the real node 1 offers the same session at
  // cursor 0: its socket takes over (the fake one is closed), node 0's
  // journal replays everything the fake never acked, and the mesh drains
  // with nothing lost and nothing duplicated.
  const std::uint16_t base = test_port(0);
  ChaosMesh mesh(base, nullptr, /*ops=*/40, nullptr, /*start=*/false);
  mesh.start(0);
  const int fake = test::tcp_connect("127.0.0.1", base, 100);
  handshake_as(fake, 1,
               mesh::edge_session_id(isc::make_chain(2), ChaosMesh::kSeed, 0,
                                     1));
  ASSERT_TRUE(spin_until([&] { return mesh.nodes[0]->sessions_ready(); }));
  mesh.start(1);
  EXPECT_TRUE(reads_to_eof(fake, 10));
  ::close(fake);
  mesh.finish_and_check();
  EXPECT_GE(mesh.nodes[0]->session(0).resumes(), 1u);
  EXPECT_GT(mesh.nodes[0]->session(0).data_sent(), 0u);
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

  const std::uint64_t session =
      mesh::edge_session_id(isc::make_chain(2), 7, 0, 1);
  // Not a neighbor: node 7 does not exist in a 2-chain.
  const int impostor = test::tcp_connect("127.0.0.1", base, 100);
  ControlMsg rej = offer(impostor, 7, session);
  EXPECT_EQ(rej.code, ControlMsg::kJoinReject);
  EXPECT_EQ(rej.a, 0u);  // the refusing node
  EXPECT_EQ(rej.b, mesh::kRejectNotANeighbor);
  ::close(impostor);

  // Right node id, another session: a diverging spec file.
  const int diverged = test::tcp_connect("127.0.0.1", base, 100);
  rej = offer(diverged, 1, mesh::edge_session_id(isc::make_star(3), 7, 0, 1));
  EXPECT_EQ(rej.code, ControlMsg::kJoinReject);
  EXPECT_EQ(rej.b, mesh::kRejectSessionMismatch);
  ::close(diverged);

  const int real = test::tcp_connect("127.0.0.1", base, 100);
  handshake_as(real, 1, session);
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
  const std::uint64_t session =
      mesh::edge_session_id(isc::make_chain(2), 7, 0, 1);
  std::vector<std::uint8_t> frame;
  net::wire::encode(rejoin_at_zero(1, session), frame);
  const int dying = test::tcp_connect("127.0.0.1", base, 100);
  ASSERT_EQ(::send(dying, frame.data(), frame.size() / 2, MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size() / 2));
  ::close(dying);

  const int real = test::tcp_connect("127.0.0.1", base, 100);
  handshake_as(real, 1, session);
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

TEST(MeshJoin, RefusesMoreWritesThanAGenerationsValueRange) {
  // A generation writes at most one value per op into its own 200 000-wide
  // range. A one-node topology joins without opening a socket.
  auto config = [](std::size_t ops) {
    mesh::MeshConfig cfg;
    cfg.topo = isc::make_chain(1);
    cfg.procs = 4;
    cfg.ops = ops;
    return cfg;
  };
  mesh::MeshNode fits(config(50'000));
  EXPECT_TRUE(fits.join()) << fits.error();
  mesh::MeshNode overflows(config(50'001));
  EXPECT_FALSE(overflows.join());
  EXPECT_NE(overflows.error().find("200000"), std::string::npos)
      << overflows.error();
  // 4 x 2^62 wraps to 0 in 64 bits; the check must not.
  mesh::MeshNode wraps(config(std::size_t{1} << 62));
  EXPECT_FALSE(wraps.join());
}

TEST(MeshJoin, RejectsTopologiesThatOverflowPortsOrSystemIds) {
  // Both are refused before anything listens, so no socket opens.
  auto config = [](std::size_t nodes, std::size_t node_id,
                   std::uint16_t base_port) {
    mesh::MeshConfig cfg;
    cfg.topo = isc::make_chain(nodes);
    cfg.node_id = node_id;
    cfg.base_port = base_port;
    return cfg;
  };
  // 65500 + 36 wraps to port 0; every node of the topology refuses it.
  for (std::size_t id : {0u, 35u, 36u, 39u}) {
    mesh::MeshNode node(config(40, id, 65500));
    EXPECT_FALSE(node.join()) << "node " << id;
    EXPECT_NE(node.error().find("65535"), std::string::npos) << node.error();
  }
  mesh::MeshNode unset(config(2, 0, 0));  // node 0 would listen on port 0
  EXPECT_FALSE(unset.join());
  EXPECT_NE(unset.error().find("base port 0"), std::string::npos)
      << unset.error();
  // Node 4096's first generation would share node 0's second one's id.
  mesh::MeshNode crowded(config(4097, 0, 1000));
  EXPECT_FALSE(crowded.join());
  EXPECT_NE(crowded.error().find("4096"), std::string::npos)
      << crowded.error();
  // A lone node opens no socket and uses no port.
  mesh::MeshNode alone(config(1, 0, 0));
  EXPECT_TRUE(alone.join()) << alone.error();
}

// Join node 0 under `topo0` and node `dialer` under `topo1` (seeds `seed0`
// and `seed1`) on one port range; the acceptor must fail too (it times out),
// and the dialer's error is returned.
std::string refused_dialer_error(const Topology& topo0, std::uint64_t seed0,
                                 std::size_t dialer, const Topology& topo1,
                                 std::uint64_t seed1, std::uint16_t base) {
  auto config = [base](std::size_t id, const Topology& topo,
                       std::uint64_t seed) {
    mesh::MeshConfig cfg;
    cfg.node_id = id;
    cfg.topo = topo;
    cfg.seed = seed;
    cfg.base_port = base;
    cfg.join_timeout_ms = 1'000;
    return cfg;
  };
  mesh::MeshNode node0(config(0, topo0, seed0));
  std::thread joiner([&] { EXPECT_FALSE(node0.join()); });
  // Let node 0 listen first: a refused connect would back off past the
  // budget instead of reaching it.
  ::close(test::tcp_connect("127.0.0.1", base, 100));
  mesh::MeshNode node1(config(dialer, topo1, seed1));
  EXPECT_FALSE(node1.join());
  joiner.join();
  return node1.error();
}

TEST(MeshJoin, DialerLearnsWhyItWasRejected) {
  // A 3-chain's node 1 dials node 0 — but node 0 was launched with a star,
  // so the topology hashes, hence the session ids, diverge.
  std::string why = refused_dialer_error(isc::make_star(3), 7, 1,
                                         isc::make_chain(3), 7, test_port(40));
  EXPECT_NE(why.find("link to node 0"), std::string::npos) << why;
  EXPECT_NE(why.find("session id mismatch"), std::string::npos) << why;
  // A 3-star's node 2 dials node 0, which runs a 3-chain: not its neighbor.
  why = refused_dialer_error(isc::make_chain(3), 7, 2, isc::make_star(3), 7,
                             test_port(200));
  EXPECT_NE(why.find("not a neighbor"), std::string::npos) << why;
}

TEST(MeshJoin, MismatchedSeedsAreRefusedAtJoin) {
  // Same spec, seeds 7 and 8: the workloads would diverge and no rejoin
  // could ever match, so the link must not form at all.
  const std::string why = refused_dialer_error(
      isc::make_chain(2), 7, 1, isc::make_chain(2), 8, test_port(210));
  EXPECT_NE(why.find("session id mismatch"), std::string::npos) << why;
}

TEST(MeshJoin, FirstDialIsNotDelayedByTheBackoff) {
  // Backoff spaces out re-dials after a failed attempt; the first dial goes
  // out at once, so a 5 s backoff leaves a 2 s join budget untouched.
  const std::uint16_t base = test_port(220);
  auto config = [base](std::size_t id) {
    mesh::MeshConfig cfg;
    cfg.node_id = id;
    cfg.topo = isc::make_chain(2);
    cfg.base_port = base;
    cfg.join_timeout_ms = 2'000;
    cfg.timing.backoff_initial_ms = 5'000;
    cfg.timing.backoff_max_ms = 5'000;
    return cfg;
  };
  mesh::MeshNode node0(config(0));
  std::thread joiner([&] { EXPECT_TRUE(node0.join()) << node0.error(); });
  ::close(test::tcp_connect("127.0.0.1", base, 100));  // node 0 listens
  mesh::MeshNode node1(config(1));
  EXPECT_TRUE(node1.join()) << node1.error();
  joiner.join();
  EXPECT_EQ(node1.session(0).resumes(), 0u);  // a first connection
}

TEST(MeshJoin, ADialerStartedFirstJoinsOnceItsPeerListens) {
  // Until its link first forms, a dialer retries a refused connect every
  // kJoinDialRetryMs, uncounted: neither the 5 s backoff nor a budget of
  // one reconnect attempt may delay or fail a join whose peer starts later.
  const std::uint16_t base = test_port(250);
  auto config = [base](std::size_t id) {
    mesh::MeshConfig cfg;
    cfg.node_id = id;
    cfg.topo = isc::make_chain(2);
    cfg.base_port = base;
    cfg.join_timeout_ms = 5'000;
    cfg.timing.backoff_initial_ms = 5'000;
    cfg.timing.backoff_max_ms = 5'000;
    cfg.timing.reconnect_attempts = 1;
    return cfg;
  };
  mesh::MeshNode node1(config(1));
  std::thread dialer([&] { EXPECT_TRUE(node1.join()) << node1.error(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  mesh::MeshNode node0(config(0));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(node0.join()) << node0.error();
  dialer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1'500));
  EXPECT_EQ(node1.session(0).resumes(), 0u);  // a first connection
}

TEST(MeshJoin, SilentConnectionsDoNotDelayAJoin) {
  // Three connections to node 0's listener that never say a word, then node
  // 1 joins. Each connection has its own read budget on node 0's loop, so
  // node 1's handshake is answered at once instead of queueing behind the
  // silent ones; each silent socket is closed when its budget ends. Node
  // 1's stalled writes hold the run open past those budgets.
  net::FaultHooks hooks;
  hooks.stall_writes.store(true);
  const std::uint16_t base = test_port(160);
  ChaosMesh mesh(base, &hooks, /*ops=*/40, nullptr, /*start=*/false);
  mesh.start(0);
  std::vector<int> silent;
  for (int i = 0; i < 3; ++i)
    silent.push_back(test::tcp_connect("127.0.0.1", base, 100));
  const auto opened = std::chrono::steady_clock::now();
  mesh.start(1);
  ASSERT_TRUE(spin_until([&] { return mesh.nodes[1]->sessions_ready(); }));
  EXPECT_LT(std::chrono::steady_clock::now() - opened,
            std::chrono::milliseconds(1'000));
  for (int fd : silent) {
    EXPECT_TRUE(reads_to_eof(fd, 5));  // node 0 gave up on it
    EXPECT_GE(std::chrono::steady_clock::now() - opened,
              std::chrono::milliseconds(900));
    ::close(fd);
  }
  hooks.stall_writes.store(false);
  mesh.finish_and_check();
}

TEST(MeshJoin, BytesAfterTheHandshakeBelongToTheSession) {
  // A fake node 0 answers the real node 1's handshake and sends a pair in
  // the same write(): the TransportFrame right behind the kRejoin answer
  // arrives in the read that ends the handshake. It belongs to the session
  // the handshake formed, and must not be lost at the frame boundary.
  const std::uint16_t base = test_port(280);
  const int listener = net::tcp_listen(base);
  mesh::MeshConfig cfg;
  cfg.node_id = 1;
  cfg.topo = isc::make_chain(2);
  cfg.base_port = base;
  mesh::MeshNode node1(std::move(cfg));
  int fake = -1;
  std::thread acceptor([&] {
    ASSERT_TRUE(
        spin_until([&] { return (fake = net::tcp_accept(listener)) >= 0; }));
    const ControlMsg offer = recv_ctrl(fake);
    EXPECT_EQ(offer.code, ControlMsg::kRejoin);
    EXPECT_EQ(offer.a, 1u);
    const std::uint64_t session =
        mesh::edge_session_id(isc::make_chain(2), 7, 0, 1);
    EXPECT_EQ(offer.b, session);
    net::TransportFrame frame;  // seq 0, carrying one pair
    auto pair = std::make_unique<isc::PairMsg>();
    pair->var = VarId{0};
    pair->value = 42;
    frame.payload = std::move(pair);
    std::vector<std::uint8_t> bytes;
    net::wire::encode(rejoin_at_zero(0, session), bytes);
    net::wire::encode(frame, bytes);
    EXPECT_EQ(::write(fake, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  });
  EXPECT_TRUE(node1.join()) << node1.error();
  acceptor.join();
  EXPECT_EQ(node1.session(0).data_delivered(), 1u);
  EXPECT_EQ(node1.session(0).error(), nullptr);
  ::close(fake);
  ::close(listener);
}

// ---- the 5-system tree soak ------------------------------------------------

TEST(MeshSoak, FiveSystemTreeMergedHistoryIsCausal) {
  //   0 ─┬─ 1 ─┬─ 3
  //      │     └─ 4
  //      └─ 2
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

TEST(MeshMonitor, UntracedRunAllocatesNoTraceRing) {
  // Every node runs the online monitor, fed by the observer hooks rather
  // than the trace sink: without tracing asked for, no node allocates a
  // trace ring, and the causal run raises no violation.
  std::vector<std::unique_ptr<mesh::MeshNode>> nodes;
  for (std::size_t i = 0; i < 2; ++i) {
    mesh::MeshConfig cfg;
    cfg.node_id = i;
    cfg.topo = isc::make_chain(2);
    cfg.base_port = test_port(190);
    cfg.procs = 2;
    cfg.ops = 200;
    cfg.seed = 9;
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
    ASSERT_TRUE(results[i].ok) << "node " << i << ": " << nodes[i]->error();
    EXPECT_EQ(results[i].violations, 0u) << "node " << i;
    isc::Federation& fed = nodes[i]->federation();
    const obs::TraceSink& trace = fed.observability().trace();
    EXPECT_FALSE(trace.enabled()) << "node " << i;
    EXPECT_FALSE(trace.buffer_allocated()) << "node " << i;
    EXPECT_EQ(trace.recorded(), 0u) << "node " << i;
    ASSERT_NE(fed.monitor(), nullptr);
    EXPECT_GT(fed.monitor()->events_seen(), 0u) << "node " << i;
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
    cfg.timing.hb_interval_ms = kHeartbeatMs;
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
  // with an unknown session id, a hello (a code no node sends any more), and
  // a torn control frame (EOF between length prefix and payload). All are
  // refused/ignored; the mesh finishes untouched.
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
  const int rj = test::tcp_connect("127.0.0.1", base, 100);
  ASSERT_TRUE(test::send_ctrl_fd(rj, bogus));
  ControlMsg rej = recv_ctrl(rj);
  EXPECT_EQ(rej.code, ControlMsg::kJoinReject);
  EXPECT_EQ(rej.b, mesh::kRejectSessionMismatch);
  ::close(rj);

  const int hello = test::tcp_connect("127.0.0.1", base, 100);
  send_ctrl(hello, ControlMsg::kHello, 1, net::wire::kWireVersion);
  rej = recv_ctrl(hello);
  EXPECT_EQ(rej.code, ControlMsg::kJoinReject);
  EXPECT_EQ(rej.b, mesh::kRejectSessionMismatch);
  ::close(hello);

  const int torn = test::tcp_connect("127.0.0.1", base, 100);
  const std::uint8_t prefix[4] = {32, 0, 0, 0};  // promises a 32-byte body…
  ASSERT_EQ(::send(torn, prefix, 4, MSG_NOSIGNAL), 4);
  ::close(torn);  // …and dies before sending it

  hooks.stall_writes.store(false);
  mesh.finish_and_check();
}

TEST(MeshChaos, ARestartWithoutResumeIsRefusedAndThePeerRunsOn) {
  // Node 1's first generation runs in a child process until node 0 holds
  // some of its acks, then is kill -9'd. Restarted without --resume, node 1
  // offers the link at cursor 0, below what it acknowledged: node 0 refuses
  // it by name and keeps the session. Nor may a fresh start truncate the
  // crashed generation's journal, so the real --resume still continues the
  // run with nothing lost and nothing duplicated.
  const std::uint16_t base = test_port(230);
  const std::string state = "/tmp/cim_spill_restart_" +
                            std::to_string(::getpid()) + ".journal";
  ::unlink(state.c_str());
  auto config = [&](std::size_t id) {
    mesh::MeshConfig cfg;
    cfg.node_id = id;
    cfg.topo = isc::make_chain(2);
    cfg.base_port = base;
    cfg.procs = 2;
    cfg.ops = 20'000;
    cfg.seed = ChaosMesh::kSeed;
    cfg.join_timeout_ms = 20'000;
    cfg.timing.hb_interval_ms = 20;
    cfg.timing.liveness_timeout_ms = 150;
    cfg.timing.backoff_initial_ms = 20;
    cfg.timing.backoff_max_ms = 100;
    if (id == 1) cfg.state_path = state;
    return cfg;
  };
  // Fork before any thread of this process starts.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    mesh::MeshNode node1(config(1));
    if (node1.join()) node1.run();
    ::_exit(0);
  }
  net::FaultHooks hooks0;
  mesh::MeshConfig cfg0 = config(0);
  cfg0.faults = &hooks0;
  mesh::MeshNode node0(std::move(cfg0));
  mesh::MeshResult result0;
  std::thread runner([&] {
    if (node0.join()) result0 = node0.run();
  });
  EXPECT_TRUE(spin_until([&] {
    if (!node0.sessions_ready()) return false;
    // Node 1 acknowledged some pairs. A send publishes its count before its
    // journal depth, so the depth read second may lag by one frame.
    const mesh::LinkSession& s = node0.session(0);
    return s.data_sent() > s.backlog() + 1;
  }));
  // Node 0's stalled writes hold node 1's run open until the kill.
  hooks0.stall_writes.store(true);
  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
  hooks0.stall_writes.store(false);
  EXPECT_TRUE(spin_until([&] { return !node0.session(0).connected(); }));

  mesh::MeshConfig stateless = config(1);
  stateless.state_path.clear();
  mesh::MeshNode fresh(std::move(stateless));
  EXPECT_FALSE(fresh.join());
  EXPECT_NE(fresh.error().find("link to node 0: rejected by the peer: this "
                               "node lost frames the peer had acknowledged"),
            std::string::npos)
      << fresh.error();
  mesh::MeshNode truncating(config(1));
  EXPECT_FALSE(truncating.join());
  EXPECT_NE(truncating.error().find("unfinished run"), std::string::npos)
      << truncating.error();
  EXPECT_EQ(node0.session(0).error(), nullptr);  // node 0 is unharmed

  mesh::MeshConfig cfg1 = config(1);
  cfg1.resume = true;
  mesh::MeshNode resumed(std::move(cfg1));
  mesh::MeshResult result1;
  if (resumed.join()) result1 = resumed.run();
  runner.join();
  ::unlink(state.c_str());
  ASSERT_TRUE(result0.ok) << node0.error();
  ASSERT_TRUE(result1.ok) << resumed.error();
  EXPECT_EQ(resumed.generation(), 1u);
  EXPECT_EQ(node0.session(0).data_sent(), resumed.session(0).data_delivered());
  EXPECT_EQ(resumed.session(0).data_sent(), node0.session(0).data_delivered());
}

// A mesh node's federation reports its external link as net.link.0.a: the
// session's backlog and the bytes its sockets moved.
TEST(LinkGauges, MeshExternalLinkReportsBacklogAndBytes) {
  ChaosMesh mesh(test_port(260), nullptr);
  mesh.finish_and_check();
  for (std::size_t i = 0; i < 2; ++i) {
    const obs::MetricsSnapshot snap =
        mesh.nodes[i]->federation().metrics_snapshot();
    EXPECT_NE(snap.find("net.link.0.a.backlog"), nullptr) << "node " << i;
    for (const char* name :
         {"net.link.0.a.bytes_out", "net.link.0.a.bytes_in"}) {
      const obs::MetricsSnapshot::Entry* e = snap.find(name);
      ASSERT_NE(e, nullptr) << "node " << i << ": " << name;
      EXPECT_GT(e->value, 0) << "node " << i << ": " << name;
    }
  }
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
  // run() returned, must see exactly what the owner sees. Node 1's writes
  // stall until the fault has landed, so the run cannot finish before it:
  // a fast run could otherwise complete in fewer than 9 reads.
  net::FaultHooks hooks;
  hooks.fail_reads_after.store(8);  // node 1's 9th transport read fails
  hooks.stall_writes.store(true);
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
  hooks.stall_writes.store(false);
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
  j.record_started();
  j.close();

  mesh::SpillState back;
  std::string err;
  ASSERT_TRUE(mesh::SpillJournal::load(path, back, err)) << err;
  EXPECT_EQ(back.node_id, 3u);
  EXPECT_EQ(back.topo_hash, 0xABCDu);
  EXPECT_EQ(back.seed, 11u);
  EXPECT_EQ(back.generation, 1u);
  EXPECT_TRUE(back.started);
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

TEST(MeshResume, ANeighborBackAfterTheJoinDeadlineStillFormsTheLink) {
  // A resumed node's links formed before, so its join deadline does not
  // fail it: past the deadline it runs with the link down, and the
  // neighbor's late start forms the link through the ordinary rejoin path.
  // The first start never ran its workload, so the resume keeps
  // generation 0.
  const std::uint16_t base = test_port(240);
  const std::string state =
      "/tmp/cim_spill_late_" + std::to_string(::getpid()) + ".journal";
  auto config = [&](std::size_t id) {
    mesh::MeshConfig cfg;
    cfg.node_id = id;
    cfg.topo = isc::make_chain(2);
    cfg.base_port = base;
    cfg.procs = 2;
    cfg.ops = 40;
    cfg.join_timeout_ms = 200;
    if (id == 0) cfg.state_path = state;
    return cfg;
  };
  {
    // Node 0's first start times out alone, leaving a resumable journal.
    mesh::MeshNode first(config(0));
    EXPECT_FALSE(first.join());
  }
  mesh::MeshConfig cfg0 = config(0);
  cfg0.resume = true;
  mesh::MeshNode node0(std::move(cfg0));
  ASSERT_TRUE(node0.join()) << node0.error();
  EXPECT_TRUE(node0.session(0).down());
  mesh::MeshResult result0;
  std::thread runner([&] { result0 = node0.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  mesh::MeshNode node1(config(1));
  mesh::MeshResult result1;
  if (node1.join()) result1 = node1.run();
  runner.join();
  ::unlink(state.c_str());
  ASSERT_TRUE(result0.ok) << node0.error();
  ASSERT_TRUE(result1.ok) << node1.error();
  EXPECT_EQ(node0.generation(), 0u);
  EXPECT_GE(node0.session(0).resumes(), 1u);  // a restored link re-formed
  EXPECT_EQ(node0.session(0).data_sent(), node1.session(0).data_delivered());
  EXPECT_EQ(node1.session(0).data_sent(), node0.session(0).data_delivered());
}

TEST(MeshResume, AResumeThatNeverRanItsWorkloadKeepsItsGeneration) {
  // Only a generation that started its workload has put its system id and
  // values into the history. A fresh join that times out and five resumes
  // destroyed before run() leave node 0 at generation 0, so a sixth resume
  // still runs, drains, and gives a causal merged history.
  const std::uint16_t base = test_port(270);
  const std::string tag = std::to_string(::getpid());
  const std::string state = "/tmp/cim_spill_unused_" + tag + ".journal";
  const std::string hist[2] = {"/tmp/cim_unused_" + tag + "_0.hist",
                               "/tmp/cim_unused_" + tag + "_1.hist"};
  auto config = [&](std::size_t id, bool resume) {
    mesh::MeshConfig cfg;
    cfg.node_id = id;
    cfg.topo = isc::make_chain(2);
    cfg.base_port = base;
    cfg.procs = 2;
    cfg.ops = 40;
    cfg.join_timeout_ms = 200;
    cfg.history_path = hist[id];
    if (id == 0) cfg.state_path = state;
    cfg.resume = resume;
    return cfg;
  };
  {
    mesh::MeshNode first(config(0, false));
    EXPECT_FALSE(first.join());
  }
  for (int attempt = 1; attempt <= 5; ++attempt) {
    mesh::MeshNode resumed(config(0, true));
    ASSERT_TRUE(resumed.join()) << "resume " << attempt << ": "
                                << resumed.error();
    EXPECT_EQ(resumed.generation(), 0u) << "resume " << attempt;
  }
  mesh::MeshNode node0(config(0, true));
  ASSERT_TRUE(node0.join()) << node0.error();
  mesh::MeshResult result0;
  std::thread runner([&] { result0 = node0.run(); });
  mesh::MeshNode node1(config(1, false));
  mesh::MeshResult result1;
  if (node1.join()) result1 = node1.run();
  runner.join();
  ASSERT_TRUE(result0.ok) << node0.error();
  ASSERT_TRUE(result1.ok) << node1.error();
  EXPECT_EQ(node0.generation(), 0u);

  std::string merged;
  for (const std::string& path : hist) {
    std::ifstream is(path);
    merged.append(std::istreambuf_iterator<char>(is),
                  std::istreambuf_iterator<char>());
    ::unlink(path.c_str());
  }
  ::unlink(state.c_str());
  const chk::ParseResult parsed = chk::parse_trace(merged);
  ASSERT_TRUE(parsed.history) << parsed.error;
  EXPECT_EQ(parsed.history->size(), 2u * 2u * 40u);
  const auto verdict =
      chk::CausalChecker{}.check(*parsed.history, chk::Level::kCM);
  EXPECT_TRUE(verdict.ok()) << verdict.detail;
}

}  // namespace
}  // namespace cim
