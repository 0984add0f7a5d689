#include "interconnect/interconnector.h"

#include <numeric>
#include <utility>

#include "common/check.h"

namespace cim::isc {

namespace {

// Disjoint-set for the acyclicity check.
struct UnionFind {
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent[a] = b;
    return true;
  }
  std::vector<std::size_t> parent;
};

}  // namespace

Interconnector::Interconnector(net::Fabric& fabric,
                               std::vector<mcs::System*> systems,
                               std::vector<LinkSpec> links, IspMode mode,
                               obs::Observability* obs, LinkWire wire,
                               std::vector<ExternalLinkSpec> external_links)
    : fabric_(fabric), systems_(std::move(systems)), links_(std::move(links)),
      mode_(mode), obs_(obs),
      wire_(wire == LinkWire::kDefault ? LinkWire::kInMemory : wire),
      external_links_(std::move(external_links)) {
  for (mcs::System* s : systems_) CIM_CHECK(s != nullptr);
  for (const ExternalLinkSpec& e : external_links_) {
    CIM_CHECK_MSG(e.system < systems_.size(),
                  "external link references an unknown system");
  }
  validate_tree();
}

void Interconnector::validate_tree() const {
  // "we interconnect the original systems in pairs avoiding the creation of
  // cycles, which results in a tree interconnection topology."
  UnionFind uf(systems_.size());
  for (const LinkSpec& link : links_) {
    CIM_CHECK_MSG(link.system_a < systems_.size() &&
                      link.system_b < systems_.size(),
                  "link references an unknown system");
    CIM_CHECK_MSG(link.system_a != link.system_b,
                  "a system cannot be interconnected with itself");
    CIM_CHECK_MSG(uf.unite(link.system_a, link.system_b),
                  "interconnection topology must be a tree (cycle between S"
                      << link.system_a << " and S" << link.system_b << ")");
  }
}

void Interconnector::build() {
  CIM_CHECK_MSG(!built_, "build() called twice");
  built_ = true;

  struct PendingIsp {
    std::size_t system;
    std::uint16_t slot;
    IsProtocolChoice choice = IsProtocolChoice::kAuto;
    bool choice_set = false;
  };
  std::vector<PendingIsp> pending;
  shared_isp_of_system_.assign(systems_.size(), SIZE_MAX);

  auto reserve_shared = [&](std::size_t sys) -> std::size_t {
    if (shared_isp_of_system_[sys] == SIZE_MAX) {
      const ProcId id = systems_[sys]->add_isp_slot();
      pending.push_back(PendingIsp{sys, id.index});
      shared_isp_of_system_[sys] = pending.size() - 1;
    }
    return shared_isp_of_system_[sys];
  };
  auto set_choice = [&](std::size_t isp_index, IsProtocolChoice choice) {
    PendingIsp& p = pending[isp_index];
    if (p.choice_set) {
      CIM_CHECK_MSG(p.choice == choice,
                    "conflicting IS-protocol choices for a shared IS-process");
    } else {
      p.choice = choice;
      p.choice_set = true;
    }
  };

  // 1. Reserve IS-process slots (before finalize fixes the process counts).
  for (const LinkSpec& link : links_) {
    std::size_t ia, ib;
    if (mode_ == IspMode::kSharedPerSystem) {
      ia = reserve_shared(link.system_a);
      ib = reserve_shared(link.system_b);
    } else {
      const ProcId a = systems_[link.system_a]->add_isp_slot();
      pending.push_back(PendingIsp{link.system_a, a.index});
      ia = pending.size() - 1;
      const ProcId b = systems_[link.system_b]->add_isp_slot();
      pending.push_back(PendingIsp{link.system_b, b.index});
      ib = pending.size() - 1;
    }
    set_choice(ia, link.choice_a);
    set_choice(ib, link.choice_b);
    link_isps_.emplace_back(ia, ib);
  }
  // External links reserve an IS-process slot exactly like a local link side
  // would; the far side lives in another OS process, so no channels and no
  // cycle-check edge. (A tree whose edges span OS processes is still a tree:
  // each bridge process holds a subtree.)
  for (const ExternalLinkSpec& ext : external_links_) {
    std::size_t ie;
    if (mode_ == IspMode::kSharedPerSystem) {
      ie = reserve_shared(ext.system);
    } else {
      const ProcId id = systems_[ext.system]->add_isp_slot();
      pending.push_back(PendingIsp{ext.system, id.index});
      ie = pending.size() - 1;
    }
    set_choice(ie, ext.choice);
    external_isp_index_.push_back(ie);
  }
  external_transports_.assign(external_links_.size(), nullptr);

  // 2. Freeze the systems.
  for (mcs::System* s : systems_) {
    if (!s->finalized()) s->finalize();
  }

  // 3. Create the IS-processes.
  for (const PendingIsp& p : pending) {
    isps_.push_back(std::make_unique<IsProcess>(
        systems_[p.system]->app(p.slot), fabric_, obs_));
  }

  // 4. Inter-system channels (one FIFO channel per direction). A `reliable`
  // link interposes an ARQ endpoint pair: the channels deliver *frames* to
  // the transports, which hand in-order payloads to the IS-processes using
  // the underlying in-channel as `from` — the IS-process wiring is identical
  // either way.
  for (std::size_t li = 0; li < links_.size(); ++li) {
    const LinkSpec& link = links_[li];
    auto [ia, ib] = link_isps_[li];
    IsProcess& isp_a = *isps_[ia];
    IsProcess& isp_b = *isps_[ib];

    auto make_delay = [&]() -> net::DelayModelPtr {
      if (link.delay) return link.delay();
      return std::make_unique<net::FixedDelay>(sim::milliseconds(10));
    };
    auto make_avail = [&]() -> net::AvailabilityPtr {
      if (link.availability) return link.availability();
      return std::make_unique<net::AlwaysUp>();
    };

    net::ReliableTransport* ta = nullptr;
    net::ReliableTransport* tb = nullptr;
    std::size_t ti_a = SIZE_MAX;
    std::size_t ti_b = SIZE_MAX;
    if (link.reliable) {
      // Distinct jitter streams so the endpoints never back off in lockstep.
      transports_.push_back(
          std::make_unique<net::ReliableTransport>(fabric_, 1, obs_));
      ti_a = transports_.size() - 1;
      ta = transports_.back().get();
      transports_.push_back(
          std::make_unique<net::ReliableTransport>(fabric_, 3, obs_));
      ti_b = transports_.size() - 1;
      tb = transports_.back().get();
    }
    link_transports_.emplace_back(ti_a, ti_b);

    net::ChannelConfig ab;
    ab.src = isp_a.id();
    ab.dst = isp_b.id();
    ab.receiver = link.reliable ? static_cast<net::Receiver*>(tb) : &isp_b;
    ab.delay = make_delay();
    ab.availability = make_avail();
    ab.link_class = net::LinkClass::kInterSystem;
    ab.fifo = link.fifo;
    ab.drop_probability = link.drop_probability;
    const net::ChannelId ch_ab = fabric_.add_channel(std::move(ab));

    net::ChannelConfig ba;
    ba.src = isp_b.id();
    ba.dst = isp_a.id();
    ba.receiver = link.reliable ? static_cast<net::Receiver*>(ta) : &isp_a;
    ba.delay = make_delay();
    ba.availability = make_avail();
    ba.link_class = net::LinkClass::kInterSystem;
    ba.fifo = link.fifo;
    ba.drop_probability = link.drop_probability;
    const net::ChannelId ch_ba = fabric_.add_channel(std::move(ba));
    link_channels_.emplace_back(ch_ab, ch_ba);

    if (link.reliable) {
      ta->wire(ch_ab, ch_ba, &isp_a);
      tb->wire(ch_ba, ch_ab, &isp_b);
    }

    // Link-transport endpoints: the fabric path, wrapped in the codec
    // round-trip when the federation runs in bytes mode. The wrapper sits on
    // the *send* side, so by the time a pair enters the channel (and the
    // ARQ, which clones frames for retransmission) it has already survived
    // encode → decode.
    auto make_endpoint = [&](net::ChannelId out,
                             net::ReliableTransport* arq) {
      endpoint_storage_.push_back(
          std::make_unique<net::FabricLinkTransport>(fabric_, out, arq));
      net::LinkTransport* ep = endpoint_storage_.back().get();
      if (wire_ == LinkWire::kLoopbackBytes) {
        endpoint_storage_.push_back(
            std::make_unique<net::LoopbackBytesTransport>(*ep, obs_));
        ep = endpoint_storage_.back().get();
      }
      return ep;
    };
    net::LinkTransport* ep_a = make_endpoint(ch_ab, ta);
    net::LinkTransport* ep_b = make_endpoint(ch_ba, tb);
    link_endpoints_.emplace_back(ep_a, ep_b);

    const std::size_t la = isp_a.add_link(ep_a);
    isp_a.register_in_channel(ch_ba, la);
    const std::size_t lb = isp_b.add_link(ep_b);
    isp_b.register_in_channel(ch_ab, lb);
  }

  // 5. Activate the IS-protocols.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    isps_[i]->activate(pending[i].choice);
  }
}

IsProcess& Interconnector::shared_isp(std::size_t system_index) {
  CIM_CHECK(built_ && mode_ == IspMode::kSharedPerSystem);
  CIM_CHECK(system_index < shared_isp_of_system_.size());
  const std::size_t i = shared_isp_of_system_[system_index];
  CIM_CHECK_MSG(i != SIZE_MAX, "system has no interconnection link");
  return *isps_[i];
}

IsProcess& Interconnector::isp_a(std::size_t link_index) {
  CIM_CHECK(built_ && link_index < link_isps_.size());
  return *isps_[link_isps_[link_index].first];
}

IsProcess& Interconnector::isp_b(std::size_t link_index) {
  CIM_CHECK(built_ && link_index < link_isps_.size());
  return *isps_[link_isps_[link_index].second];
}

std::pair<net::ReliableTransport*, net::ReliableTransport*>
Interconnector::link_transports(std::size_t link_index) const {
  CIM_CHECK(built_ && link_index < link_transports_.size());
  const auto [ti_a, ti_b] = link_transports_[link_index];
  return {ti_a == SIZE_MAX ? nullptr : transports_[ti_a].get(),
          ti_b == SIZE_MAX ? nullptr : transports_[ti_b].get()};
}

std::pair<net::ChannelId, net::ChannelId> Interconnector::link_channels(
    std::size_t link_index) const {
  CIM_CHECK(built_ && link_index < link_channels_.size());
  return link_channels_[link_index];
}

std::pair<net::LinkTransport*, net::LinkTransport*>
Interconnector::link_endpoints(std::size_t link_index) const {
  CIM_CHECK(built_ && link_index < link_endpoints_.size());
  return link_endpoints_[link_index];
}

IsProcess& Interconnector::external_isp(std::size_t ext_index) {
  CIM_CHECK(built_ && ext_index < external_isp_index_.size());
  return *isps_[external_isp_index_[ext_index]];
}

std::size_t Interconnector::attach_external_link(
    std::size_t ext_index, net::LinkTransport* transport) {
  CIM_CHECK(built_ && ext_index < external_isp_index_.size());
  CIM_CHECK(transport != nullptr);
  CIM_CHECK_MSG(external_transports_[ext_index] == nullptr,
                "external link attached twice");
  external_transports_[ext_index] = transport;
  return external_isp(ext_index).add_link(transport);
}

net::LinkTransport* Interconnector::external_transport(
    std::size_t ext_index) const {
  CIM_CHECK(ext_index < external_transports_.size());
  return external_transports_[ext_index];
}

}  // namespace cim::isc
