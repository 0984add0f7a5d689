// Shared test helpers: compact builders for systems, federations, and
// hand-written histories, the Section-3 counterexample scenario, and the raw
// sockets of the mesh tests' fake peers.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checker/causal_checker.h"
#include "checker/history.h"
#include "checker/online_monitor.h"
#include "checker/relation.h"
#include "common/check.h"
#include "interconnect/federation.h"
#include "mcs/system.h"
#include "net/tcp_link.h"
#include "net/wire.h"
#include "protocols/anbkh.h"
#include "protocols/aw_seq.h"
#include "protocols/lazy_batch.h"
#include "protocols/tob_causal.h"
#include "workload/generator.h"

namespace cim::test {

/// Base port of an in-process loopback mesh (node i listens on base + i);
/// each test passes its own `offset`, 10 apart, and gets the same base for
/// it on every call. The ports lie below the kernel's ephemeral range
/// (32768 and up), so no outbound connection of a concurrently running test
/// (ctest -j) can hold one, and a block in which some port cannot be bound
/// (another test process listens there) is skipped.
inline std::uint16_t test_port(std::uint16_t offset) {
  static std::map<std::uint16_t, std::uint16_t> chosen;
  if (const auto it = chosen.find(offset); it != chosen.end())
    return it->second;
  constexpr std::uint32_t kLow = 20000;
  constexpr std::uint32_t kSpan = 12000;  // bases stay below 32000 + offset
  constexpr std::uint16_t kBlock = 8;
  auto bindable = [](std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    int one = 1;  // as tcp_listen: TIME_WAIT leftovers do not count
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    const bool ok =
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(fd);
    return ok;
  };
  std::uint32_t h = (static_cast<std::uint32_t>(::getpid()) * 131) % kSpan;
  for (int attempt = 0; attempt < 64; ++attempt, h = (h + 997) % kSpan) {
    const auto base = static_cast<std::uint16_t>(kLow + h + offset);
    bool free = true;
    for (std::uint16_t i = 0; i < kBlock && free; ++i)
      free = bindable(static_cast<std::uint16_t>(base + i));
    if (free) return chosen[offset] = base;
  }
  return chosen[offset] = static_cast<std::uint16_t>(kLow + h + offset);
}

/// Blocking connect to host:port, retrying (100 ms apart) while the peer is
/// not yet listening: a fake peer's socket (a mesh node dials with
/// net::tcp_dial on its loop). Returns the connected fd; throws after
/// `retries` failures.
inline int tcp_connect(const char* host, std::uint16_t port,
                       int retries = 100) {
  sockaddr_in addr{};
  CIM_CHECK_MSG(net::tcp_resolve(host, port, addr), "cannot resolve " << host);
  for (int attempt = 0; attempt <= retries; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    CIM_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return fd;
    ::close(fd);
    ::usleep(100 * 1000);  // the node under test may not listen yet
  }
  CIM_CHECK_MSG(false, "cannot connect to " << host << ":" << port);
  return -1;
}

/// Write one bare wire-encoded ControlMsg frame, a link handshake frame, to
/// a connected blocking fd. False on error.
inline bool send_ctrl_fd(int fd, const net::wire::ControlMsg& msg) {
  std::vector<std::uint8_t> buf;
  net::wire::encode(msg, buf);
  std::size_t sent = 0;
  while (sent < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

inline VarId X{0};
inline VarId Y{1};
inline VarId Z{2};

/// Build a history from (proc, kind, var, value) tuples; program order is
/// the order of mention per process.
struct H {
  std::vector<chk::Op> ops;
  std::map<ProcId, std::uint64_t> seq;

  H& rd(std::uint16_t proc, VarId var, Value value) {
    return add(proc, chk::OpKind::kRead, var, value);
  }
  H& wr(std::uint16_t proc, VarId var, Value value) {
    return add(proc, chk::OpKind::kWrite, var, value);
  }
  H& add(std::uint16_t proc, chk::OpKind kind, VarId var, Value value) {
    chk::Op op;
    op.id = OpId{ops.size()};
    op.proc = ProcId{SystemId{0}, proc};
    op.kind = kind;
    op.var = var;
    op.value = value;
    op.proc_seq = seq[op.proc]++;
    ops.push_back(op);
    return *this;
  }
  chk::History history() const { return chk::History(ops); }
};

/// Expects every WriteCORead / WriteCOInitRead that OnlineMonitor::check
/// reported on `h` to name a genuine witness: w2 writes the read's variable,
/// w2 ⇝ the read, and w1 ⇝ w2 (for a WriteCORead). The replay stamps a read
/// with its history index and numbers each process's writes from 1. Skipped
/// where ⇝ has no Relation (a cyclic, thin-air or ambiguous history).
inline void expect_genuine_witnesses(const chk::History& h,
                                     const std::vector<chk::Violation>& vs) {
  const std::optional<chk::Relation> co = chk::CausalChecker{}.causal_order(h);
  if (!co) return;
  auto index_of = [&h](WriteId w) {
    const chk::History::Span s = h.span_of(w.origin());
    std::uint32_t k = 0;
    for (std::size_t i = s.begin; i < s.end; ++i) {
      if (h.is_write(i) && ++k == w.seq()) return i;
    }
    ADD_FAILURE() << "no write " << w << " in the history";
    return s.begin;
  };
  for (const chk::Violation& v : vs) {
    if (v.pattern != chk::BadPattern::kWriteCORead &&
        v.pattern != chk::BadPattern::kWriteCOInitRead)
      continue;
    const auto r = static_cast<std::size_t>(v.t);
    const std::size_t w2 = index_of(v.w2);
    EXPECT_EQ(h.var(w2), h.var(r));
    EXPECT_TRUE(co->test(w2, r)) << "w2 does not precede the read";
    if (v.pattern == chk::BadPattern::kWriteCORead) {
      EXPECT_TRUE(co->test(index_of(v.w1), w2)) << "w1 does not precede w2";
    }
  }
}

/// FNV-1a of `s`: the parity pins hash a whole JSONL trace with it.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One-system federation with `procs` application processes.
inline isc::FederationConfig single_system(std::uint16_t procs,
                                           mcs::ProtocolFactory protocol,
                                           std::uint64_t seed = 1) {
  isc::FederationConfig cfg;
  cfg.seed = seed;
  mcs::SystemConfig sc;
  sc.id = SystemId{0};
  sc.num_app_processes = procs;
  sc.protocol = std::move(protocol);
  sc.seed = seed + 100;
  cfg.systems.push_back(std::move(sc));
  return cfg;
}

/// Two systems of `procs` application processes each, joined by one link.
inline isc::FederationConfig two_systems(std::uint16_t procs,
                                         mcs::ProtocolFactory protocol_a,
                                         mcs::ProtocolFactory protocol_b,
                                         std::uint64_t seed = 1) {
  isc::FederationConfig cfg;
  cfg.seed = seed;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{s};
    sc.num_app_processes = procs;
    sc.protocol = s == 0 ? protocol_a : protocol_b;
    sc.seed = seed + 100 + s;
    cfg.systems.push_back(std::move(sc));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  cfg.links.push_back(std::move(link));
  return cfg;
}

// Delay model whose first sample is small and later samples large: separates
// the two pairs on the link so the inversion is observable in S1.
class StepDelay final : public net::DelayModel {
 public:
  sim::Duration sample(Rng&) override {
    return first_ ? (first_ = false, sim::milliseconds(1))
                  : sim::milliseconds(50);
  }

 private:
  bool first_ = true;
};

/// What the counterexample's reader in S1 saw of x once it read y = 2.
struct Probe {
  Value x_when_y_seen = -2;
  bool fired = false;
};

/// The Section-3 counterexample (tests/counterexample_test.cpp): S0 runs
/// lazy-batch with adversarial batch order, S1 runs ANBKH; `choice_s0` picks
/// S0's IS-protocol.
inline isc::FederationConfig counterexample_config(
    isc::IsProtocolChoice choice_s0) {
  proto::LazyBatchConfig lc;
  lc.batch_interval = sim::milliseconds(20);
  lc.order = proto::BatchOrder::kReverseVars;

  isc::FederationConfig cfg = two_systems(
      2, proto::lazy_batch_protocol(lc), proto::anbkh_protocol(), 42);
  cfg.links[0].delay = [] { return std::make_unique<StepDelay>(); };
  cfg.links[0].choice_a = choice_s0;
  return cfg;
}

/// p(0,0) writes x=1 then y=2; a reader in S1 polls y and, once it reads 2,
/// reads x into `probe`.
inline void run_counterexample(isc::Federation& fed, Probe& probe) {
  auto& sim = fed.simulator();
  // The causal chain w(x)1 ⇝ w(y)2 in S0 (program order of p(0,0)).
  fed.system(0).app(0).write(X, 1);
  sim.at(sim::Time{} + sim::milliseconds(5),
         [&] { fed.system(0).app(0).write(Y, 2); });

  // A reader in S1 polls y; the moment it sees 2 it reads x.
  auto& reader = fed.system(1).app(1);
  auto poll = std::make_shared<std::function<void()>>();
  *poll = [&, poll] {
    reader.read(Y, [&, poll](Value y) {
      if (y == 2) {
        reader.read(X, [&](Value x) {
          probe.x_when_y_seen = x;
          probe.fired = true;
        });
      } else {
        sim.after(sim::milliseconds(2), [poll] { (*poll)(); });
      }
    });
  };
  (*poll)();
  fed.run();
  // The stored lambda captures `poll` itself; break the ownership cycle so
  // the closure is reclaimed.
  *poll = nullptr;
  ASSERT_TRUE(probe.fired);
}

/// Chain of `m` systems: S0 - S1 - ... - S(m-1).
inline isc::FederationConfig chain_systems(std::size_t m, std::uint16_t procs,
                                           mcs::ProtocolFactory protocol,
                                           std::uint64_t seed = 1) {
  isc::FederationConfig cfg;
  cfg.seed = seed;
  for (std::size_t s = 0; s < m; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{static_cast<std::uint16_t>(s)};
    sc.num_app_processes = procs;
    sc.protocol = protocol;
    sc.seed = seed + 100 + s;
    cfg.systems.push_back(std::move(sc));
  }
  for (std::size_t s = 0; s + 1 < m; ++s) {
    isc::LinkSpec link;
    link.system_a = s;
    link.system_b = s + 1;
    cfg.links.push_back(std::move(link));
  }
  return cfg;
}

}  // namespace cim::test
