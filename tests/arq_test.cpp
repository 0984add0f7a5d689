// The ARQ channel (net/arq_core.h) and its simulator driver: parity pins
// and property tests for the reliable FIFO channel Theorem 1 assumes.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checker/causal_checker.h"
#include "common/rng.h"
#include "helpers.h"
#include "interconnect/federation.h"
#include "net/arq_core.h"
#include "net/reliable_transport.h"
#include "protocols/anbkh.h"
#include "sim/faults.h"
#include "workload/generator.h"

namespace cim {
namespace {

using net::ArqRx;
using Core = net::ArqCore<std::uint64_t>;

// ---- the core on its own ---------------------------------------------------

TEST(ArqCore, StampsAcksAndTrimsTheJournal) {
  Core c;
  for (std::uint64_t v = 10; v < 15; ++v) c.stamp().payload = v;
  EXPECT_EQ(c.send_next(), 5u);
  EXPECT_EQ(c.acked(), 0u);
  EXPECT_EQ(c.unacked(), 5u);

  std::vector<std::uint64_t> trimmed;
  EXPECT_TRUE(c.ack(3, [&](const Core::Entry& e) {
    trimmed.push_back(e.payload);
  }));
  EXPECT_EQ(trimmed, (std::vector<std::uint64_t>{10, 11, 12}));
  EXPECT_EQ(c.acked(), 3u);
  EXPECT_FALSE(c.ack(3)) << "a stale ACK makes no progress";
  EXPECT_FALSE(c.ack(1));
  EXPECT_TRUE(c.ack(99)) << "an ACK past the send cursor covers what was sent";
  EXPECT_EQ(c.acked(), 5u);
  EXPECT_EQ(c.unacked(), 0u);
  EXPECT_FALSE(c.ack(100));
}

TEST(ArqCore, WireCursorDrainsRewindsAndSkipsAckedEntries) {
  Core c;
  for (std::uint64_t v = 0; v < 4; ++v) c.stamp().payload = 100 + v;
  std::vector<std::uint64_t> wire;
  while (Core::Entry* e = c.next_to_wire()) wire.push_back(e->seq);
  EXPECT_EQ(wire, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(c.next_to_wire(), nullptr);

  c.rewind();  // go-back-N / rejoin replay
  c.ack(2);
  wire.clear();
  while (Core::Entry* e = c.next_to_wire()) wire.push_back(e->payload);
  EXPECT_EQ(wire, (std::vector<std::uint64_t>{102, 103}))
      << "entries acked under the cursor are never resent";

  c.stamp().payload = 104;
  ASSERT_NE(c.next_to_wire(), nullptr);
  EXPECT_EQ(c.next_to_wire(), nullptr);
}

TEST(ArqCore, ClassifiesInboundSeqs) {
  Core c;
  EXPECT_EQ(c.receive(1), ArqRx::kAhead);
  EXPECT_EQ(c.recv_next(), 0u);
  EXPECT_EQ(c.receive(0), ArqRx::kNext);
  EXPECT_EQ(c.receive(0), ArqRx::kDuplicate);
  EXPECT_EQ(c.receive(1), ArqRx::kNext);
  EXPECT_EQ(c.recv_next(), 2u);
}

TEST(ArqCore, SnapshotRestoreRoundTripsAndStartsRewound) {
  Core a;
  for (std::uint64_t v = 0; v < 6; ++v) a.stamp().payload = v * 7;
  a.ack(2);
  a.receive(0);
  while (a.next_to_wire() != nullptr) {
  }
  const net::ArqSnapshot<std::uint64_t> snap = a.snapshot();
  EXPECT_EQ(snap.send_next, 6u);
  EXPECT_EQ(snap.recv_next, 1u);
  EXPECT_EQ(snap.unacked, (std::vector<std::uint64_t>{14, 21, 28, 35}));

  Core b;
  b.restore(snap);
  EXPECT_EQ(b.acked(), 2u);
  EXPECT_EQ(b.send_next(), 6u);
  EXPECT_EQ(b.recv_next(), 1u);
  Core::Entry* first = b.next_to_wire();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->seq, 2u);
  EXPECT_EQ(first->payload, 14u);
}

// The two-system chaos federation of examples/chaos_federation.cpp: ANBKH on
// both sides, one ARQ link over a 20%-lossy reordering channel, and a
// make_chaos_plan storm of partitions, loss bursts and IS-process crashes.
isc::FederationConfig chaos_config(std::uint64_t seed, std::uint16_t procs) {
  isc::FederationConfig cfg;
  cfg.seed = seed;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{s};
    sc.num_app_processes = procs;
    sc.protocol = proto::anbkh_protocol();
    sc.seed = seed * 50 + s;
    cfg.systems.push_back(std::move(sc));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  link.reliable = true;
  link.drop_probability = 0.2;
  link.fifo = false;
  link.delay = [] {
    return std::make_unique<net::UniformDelay>(sim::microseconds(500),
                                               sim::milliseconds(10));
  };
  cfg.links.push_back(std::move(link));

  sim::ChaosOptions chaos;
  chaos.horizon = sim::seconds(2);
  chaos.num_partitions = 1;
  chaos.partition_length = sim::milliseconds(500);
  chaos.num_bursts = 2;
  chaos.burst_drop = 0.8;
  chaos.num_crashes = 2;
  chaos.num_links = cfg.links.size();
  chaos.num_systems = cfg.systems.size();
  cfg.faults = sim::make_chaos_plan(chaos, seed);
  return cfg;
}

// Parity pin for the simulator's ARQ: the full JSONL trace of
// `examples/chaos_federation 7 --trace` (12,101 events, 1,023 of them ARQ
// retx/ack/dup/ooo). Any change to ReliableTransport's event order, frame
// contents or RNG draws changes this hash.
TEST(ArqParity, ChaosFederationTraceHashIsPinned) {
  isc::FederationConfig cfg = chaos_config(7, 3);
  cfg.obs.trace.enabled = true;
  isc::Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 80;
  wc.write_fraction = 0.6;
  wc.think_max = sim::milliseconds(25);
  wc.seed = 7 + 13;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  ASSERT_EQ(fed.observability().trace().dropped(), 0u);
  std::ostringstream out;
  fed.observability().trace().write_jsonl(out);
  const std::string jsonl = out.str();
  std::size_t events = 0;
  for (char c : jsonl) events += c == '\n';
  EXPECT_EQ(events, 12101u);
  EXPECT_EQ(test::fnv1a(jsonl), 0xad24c5d95321cd7eULL);
}

// The net.link.0.<side>.<key> gauge of each side for every key, one
// "name=value" line each ("-" where the gauge is absent).
std::string link_gauges(isc::Federation& fed,
                        std::initializer_list<const char*> keys) {
  const obs::MetricsSnapshot snap = fed.metrics_snapshot();
  std::string out;
  for (const char* side : {"a", "b"}) {
    for (const char* key : keys) {
      const std::string name = std::string("net.link.0.") + side + "." + key;
      const obs::MetricsSnapshot::Entry* e = snap.find(name);
      out += name + "=" + (e ? std::to_string(e->value) : "-") + "\n";
    }
  }
  return out;
}

// Pin of the ARQ link's net.link gauges in the chaos federation, mid-storm
// (frames on the channel, unacked frames in the window) and at quiescence,
// so the source each gauge is read from cannot change what it reads.
TEST(LinkGauges, ChaosArqLinkGaugesArePinned) {
  isc::Federation fed(chaos_config(7, 3));
  wl::UniformConfig wc;
  wc.ops_per_process = 80;
  wc.write_fraction = 0.6;
  wc.think_max = sim::milliseconds(25);
  wc.seed = 7 + 13;
  auto runners = wl::install_uniform(fed, wc);
  const auto keys = {"retransmits",   "timeouts",  "dups_suppressed",
                     "acks_sent",     "down_drops", "delivered",
                     "window_in_use", "queued",    "backlog"};
  fed.run_until(sim::Time{} + sim::milliseconds(300));
  EXPECT_EQ(link_gauges(fed, keys),
            "net.link.0.a.retransmits=23\n"
            "net.link.0.a.timeouts=4\n"
            "net.link.0.a.dups_suppressed=12\n"
            "net.link.0.a.acks_sent=27\n"
            "net.link.0.a.down_drops=0\n"
            "net.link.0.a.delivered=39\n"
            "net.link.0.a.window_in_use=2\n"
            "net.link.0.a.queued=0\n"
            "net.link.0.a.backlog=1\n"
            "net.link.0.b.retransmits=23\n"
            "net.link.0.b.timeouts=4\n"
            "net.link.0.b.dups_suppressed=10\n"
            "net.link.0.b.acks_sent=25\n"
            "net.link.0.b.down_drops=0\n"
            "net.link.0.b.delivered=42\n"
            "net.link.0.b.window_in_use=5\n"
            "net.link.0.b.queued=0\n"
            "net.link.0.b.backlog=0\n");
  fed.run();
  EXPECT_EQ(link_gauges(fed, keys),
            "net.link.0.a.retransmits=234\n"
            "net.link.0.a.timeouts=30\n"
            "net.link.0.a.dups_suppressed=93\n"
            "net.link.0.a.acks_sent=84\n"
            "net.link.0.a.down_drops=0\n"
            "net.link.0.a.delivered=142\n"
            "net.link.0.a.window_in_use=0\n"
            "net.link.0.a.queued=0\n"
            "net.link.0.a.backlog=0\n"
            "net.link.0.b.retransmits=280\n"
            "net.link.0.b.timeouts=15\n"
            "net.link.0.b.dups_suppressed=61\n"
            "net.link.0.b.acks_sent=103\n"
            "net.link.0.b.down_drops=39\n"
            "net.link.0.b.delivered=139\n"
            "net.link.0.b.window_in_use=0\n"
            "net.link.0.b.queued=0\n"
            "net.link.0.b.backlog=0\n");
}

// Pin of a bytes-mode link's byte counters and backlog, mid-run and at
// quiescence: every pair's encoded frame is counted once out and once in,
// on the side that sent it.
TEST(LinkGauges, BytesModeLinkCountsItsWireBytes) {
  isc::FederationConfig cfg;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sys;
    sys.id = SystemId{s};
    sys.num_app_processes = 3;
    sys.protocol = proto::anbkh_protocol();
    sys.seed = 7 + s;
    cfg.systems.push_back(std::move(sys));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  cfg.links.push_back(std::move(link));
  cfg.link_wire = isc::LinkWire::kLoopbackBytes;
  isc::Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 30;
  wc.seed = 23;
  auto runners = wl::install_uniform(fed, wc);
  const auto keys = {"bytes_out", "bytes_in", "backlog"};
  fed.run_until(sim::Time{} + sim::milliseconds(25));
  EXPECT_EQ(link_gauges(fed, keys),
            "net.link.0.a.bytes_out=416\n"
            "net.link.0.a.bytes_in=416\n"
            "net.link.0.a.backlog=7\n"
            "net.link.0.b.bytes_out=583\n"
            "net.link.0.b.bytes_in=583\n"
            "net.link.0.b.backlog=6\n");
  fed.run();
  EXPECT_EQ(link_gauges(fed, keys),
            "net.link.0.a.bytes_out=1408\n"
            "net.link.0.a.bytes_in=1408\n"
            "net.link.0.a.backlog=0\n"
            "net.link.0.b.bytes_out=1367\n"
            "net.link.0.b.bytes_in=1367\n"
            "net.link.0.b.backlog=0\n");
}

// Property: the simulator driver keeps the reliable FIFO channel of
// Theorem 1 under every storm make_chaos_plan can sample — loss, reorder,
// partitions, loss bursts, IS-process crash/restart windows. For each seed:
// every pair crosses exactly once in each direction, both ARQ endpoints end
// drained, and the federation history is a causal memory.
TEST(ArqProperty, ChaosFederationIsExactlyOnceDrainedAndCausal) {
  std::uint64_t crashes = 0, retransmits = 0, dups = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    isc::Federation fed(chaos_config(seed, 2));
    // Traffic spans most of the 2 s storm horizon.
    wl::UniformConfig wc;
    wc.ops_per_process = 30;
    wc.write_fraction = 0.6;
    wc.think_max = sim::milliseconds(100);
    wc.seed = seed + 13;
    auto runners = wl::install_uniform(fed, wc);
    fed.run();

    isc::IsProcess& a = fed.interconnector().isp_a(0);
    isc::IsProcess& b = fed.interconnector().isp_b(0);
    ASSERT_EQ(a.pairs_sent(), b.pairs_received()) << "seed " << seed;
    ASSERT_EQ(b.pairs_sent(), a.pairs_received()) << "seed " << seed;
    auto* ta = fed.interconnector().links()[0].a.arq;
    auto* tb = fed.interconnector().links()[0].b.arq;
    ASSERT_TRUE(ta->drained() && tb->drained()) << "seed " << seed;
    const auto verdict =
        chk::CausalChecker{}.check(fed.federation_history(), chk::Level::kCM);
    ASSERT_TRUE(verdict.ok()) << "seed " << seed << ": " << verdict.detail;
    crashes += a.crash_count() + b.crash_count();
    retransmits += ta->retransmits() + tb->retransmits();
    dups += ta->dups_suppressed() + tb->dups_suppressed();
  }
  EXPECT_GE(crashes, 1000u) << "most seeds crash an IS-process mid-traffic";
  EXPECT_GT(retransmits, 10'000u);
  EXPECT_GT(dups, 0u);
}

// The mesh driver's recovery, as a model over two cores: each endpoint
// journals values, a socket is a FIFO pair of frame queues, and the storm
// kills sockets (an in-flight suffix is lost, the rest stays readable until
// the rejoin retires the socket), crashes endpoints (state survives only
// through snapshot()/restore(), like the spill journal) and rejoins with
// "ack the peer's cursor + rewind". The cursors are read at the handshake,
// so old-socket frames read after it make the replay overlap. Over any such
// history the receive side never sees a seq ahead of its cursor and every
// value is delivered exactly once, in order.
struct Frame {
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::optional<std::uint64_t> value;  // none: pure ACK
};

struct Endpoint {
  Core arq;
  std::uint64_t next_value = 0;             // values are 0, 1, 2, ...
  std::vector<std::uint64_t> delivered;     // what the peer sent us
  std::uint64_t dups = 0;
};

class SocketModel {
 public:
  explicit SocketModel(std::uint64_t seed) : rng_(seed) {}

  void run(int steps) {
    for (int i = 0; i < steps; ++i) step();
    // Quiesce: reconnect and exchange until both journals are empty.
    if (!up_) rejoin();
    for (int i = 0; i < 4 && !(ep_[0].arq.unacked() == 0 &&
                               ep_[1].arq.unacked() == 0);
         ++i) {
      for (int s = 0; s < 2; ++s) pump(s);
      for (int s = 0; s < 2; ++s) drain_wire(s, wire_[s].size());
      for (int s = 0; s < 2; ++s) pure_ack(s);
      for (int s = 0; s < 2; ++s) drain_wire(s, wire_[s].size());
    }
  }

  const Endpoint& ep(int s) const { return ep_[s]; }
  bool saw_ahead() const { return saw_ahead_; }
  std::uint64_t socket_deaths() const { return deaths_; }
  std::uint64_t crashes() const { return crashes_; }

 private:
  void step() {
    const int s = static_cast<int>(rng_.uniform(0, 1));
    switch (rng_.uniform(0, 9)) {
      case 0: case 1: case 2:
        ep_[s].arq.stamp().payload = ep_[s].next_value++;
        if (up_) pump(s);
        break;
      case 3: case 4: case 5:
        drain_wire(s, rng_.uniform(1, 4));
        break;
      case 6:
        if (up_) pure_ack(s);
        break;
      case 7:
        if (up_ && rng_.chance(0.3)) kill_socket();
        else if (!up_) rejoin();
        break;
      case 8:
        if (rng_.chance(0.2)) crash(s);
        break;
      default:
        if (up_) pump(s);
        break;
    }
  }

  // Frames on wire_[s] travel from endpoint s to endpoint 1 - s.
  void pump(int s) {
    Endpoint& e = ep_[s];
    while (Core::Entry* entry = e.arq.next_to_wire())
      wire_[s].push_back(Frame{entry->seq, e.arq.recv_next(), entry->payload});
  }

  void pure_ack(int s) {
    wire_[s].push_back(Frame{0, ep_[s].arq.recv_next(), std::nullopt});
  }

  void drain_wire(int s, std::uint64_t n) {
    Endpoint& to = ep_[1 - s];
    for (; n > 0 && !wire_[s].empty(); --n) {
      const Frame f = wire_[s].front();
      wire_[s].pop_front();
      to.arq.ack(f.ack);
      if (!f.value) continue;
      switch (to.arq.receive(f.seq)) {
        case ArqRx::kNext:
          to.delivered.push_back(*f.value);
          break;
        case ArqRx::kDuplicate:
          ++to.dups;
          break;
        case ArqRx::kAhead:
          saw_ahead_ = true;
          break;
      }
    }
  }

  // A dead socket loses some suffix of what was in flight.
  void kill_socket() {
    for (auto& w : wire_) w.resize(rng_.uniform(0, w.size()));
    up_ = false;
    ++deaths_;
  }

  void crash(int s) {
    if (up_) kill_socket();
    wire_[1 - s].clear();  // nothing reaches a dead process
    Endpoint& e = ep_[s];
    const net::ArqSnapshot<std::uint64_t> image = e.arq.snapshot();
    e.arq = Core{};
    e.arq.restore(image);
    ++crashes_;
  }

  // kRejoin: each side learns the other's delivery cursor, trims its journal
  // to it and rewinds; the replay is the next pump. Frames of the old socket
  // may still be read between the handshake and the switch-over.
  void rejoin() {
    const std::uint64_t r0 = ep_[0].arq.recv_next();
    const std::uint64_t r1 = ep_[1].arq.recv_next();
    for (int s = 0; s < 2; ++s) {
      drain_wire(s, rng_.uniform(0, wire_[s].size()));
      wire_[s].clear();
    }
    ep_[0].arq.ack(r1);
    ep_[1].arq.ack(r0);
    for (Endpoint& e : ep_) e.arq.rewind();
    up_ = true;
    pump(0);
    pump(1);
  }

  Rng rng_;
  Endpoint ep_[2];
  std::deque<Frame> wire_[2];
  bool up_ = true;
  bool saw_ahead_ = false;
  std::uint64_t deaths_ = 0;
  std::uint64_t crashes_ = 0;
};

TEST(ArqProperty, RejoinAndRestoreNeverGapAndDeliverExactlyOnce) {
  std::uint64_t deaths = 0, crashes = 0, dups = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    SocketModel model(seed);
    model.run(400);
    ASSERT_FALSE(model.saw_ahead()) << "seed " << seed;
    for (int s = 0; s < 2; ++s) {
      const Endpoint& sender = model.ep(s);
      const Endpoint& receiver = model.ep(1 - s);
      ASSERT_EQ(sender.arq.unacked(), 0u) << "seed " << seed;
      ASSERT_EQ(receiver.delivered.size(), sender.next_value)
          << "seed " << seed;
      for (std::uint64_t v = 0; v < receiver.delivered.size(); ++v)
        ASSERT_EQ(receiver.delivered[v], v) << "seed " << seed;
      dups += receiver.dups;
    }
    deaths += model.socket_deaths();
    crashes += model.crashes();
  }
  // The storm really exercised replay: sockets died, endpoints restored,
  // and replays overlapped with what had already been delivered.
  EXPECT_GT(deaths, 1000u);
  EXPECT_GT(crashes, 100u);
  EXPECT_GT(dups, 0u);
}

}  // namespace
}  // namespace cim
