#include "interconnect/interconnector.h"

#include <numeric>
#include <utility>

#include "common/check.h"
#include "net/reliable_transport.h"

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
    : fabric_(fabric), systems_(std::move(systems)), specs_(std::move(links)),
      mode_(mode), obs_(obs),
      wire_(wire == LinkWire::kDefault ? LinkWire::kInMemory : wire),
      external_specs_(std::move(external_links)) {
  for (mcs::System* s : systems_) CIM_CHECK(s != nullptr);
  for (const ExternalLinkSpec& e : external_specs_) {
    CIM_CHECK_MSG(e.system < systems_.size(),
                  "external link references an unknown system");
  }
  validate_tree();
}

void Interconnector::validate_tree() const {
  // "we interconnect the original systems in pairs avoiding the creation of
  // cycles, which results in a tree interconnection topology."
  UnionFind uf(systems_.size());
  for (const LinkSpec& link : specs_) {
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

  // 1. Reserve IS-process slots (before finalize fixes the process counts):
  // one per system in shared mode, one per link end otherwise. An external
  // link reserves its local end exactly like a local link side; the far side
  // lives in another OS process, so no channels and no cycle-check edge. (A
  // tree whose edges span OS processes is still a tree: each bridge process
  // holds a subtree.)
  struct PendingIsp {
    std::size_t system;
    std::uint16_t slot;
    IsProtocolChoice choice;
  };
  std::vector<PendingIsp> pending;
  shared_isp_of_system_.assign(systems_.size(), SIZE_MAX);
  auto reserve = [&](std::size_t sys, IsProtocolChoice choice) {
    std::size_t& shared = shared_isp_of_system_[sys];
    if (mode_ == IspMode::kSharedPerSystem && shared != SIZE_MAX) {
      CIM_CHECK_MSG(pending[shared].choice == choice,
                    "conflicting IS-protocol choices for a shared IS-process");
      return shared;
    }
    pending.push_back(
        PendingIsp{sys, systems_[sys]->add_isp_slot().index, choice});
    if (mode_ == IspMode::kSharedPerSystem) shared = pending.size() - 1;
    return pending.size() - 1;
  };
  // The pending IS-process of every link end: a and b of each link, then
  // each external link's one end.
  std::vector<std::size_t> end_isps;
  for (const LinkSpec& link : specs_) {
    end_isps.push_back(reserve(link.system_a, link.choice_a));
    end_isps.push_back(reserve(link.system_b, link.choice_b));
  }
  for (const ExternalLinkSpec& ext : external_specs_) {
    end_isps.push_back(reserve(ext.system, ext.choice));
  }

  // 2. Freeze the systems.
  for (mcs::System* s : systems_) {
    if (!s->finalized()) s->finalize();
  }

  // 3. Create the IS-processes, and give each link end its own.
  for (const PendingIsp& p : pending) {
    isps_.push_back(std::make_unique<IsProcess>(
        systems_[p.system]->app(p.slot), fabric_.simulator(), obs_));
  }
  records_.resize(specs_.size() + external_specs_.size());
  std::size_t next_end = 0;
  for (std::size_t l = 0; l < records_.size(); ++l) {
    records_[l].a.isp = isps_[end_isps[next_end++]].get();
    if (l < specs_.size()) {
      records_[l].b.isp = isps_[end_isps[next_end++]].get();
    }
  }

  // 4. The in-federation link ends and channels.
  for (std::size_t l = 0; l < specs_.size(); ++l) wire_link(l);

  // 5. Activate the IS-protocols.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    isps_[i]->activate(pending[i].choice);
  }
}

void Interconnector::wire_link(std::size_t index) {
  const LinkSpec& spec = specs_[index];
  LinkRecord& rec = records_[index];
  auto own = [this]<typename End>(std::unique_ptr<End> end) {
    End* raw = end.get();
    ends_.push_back(std::move(end));
    return raw;
  };

  // One FIFO channel per direction, each delivering to the end on its far
  // side: that end is the fabric receiver of its in-channel.
  auto wire_ends = [&](auto& end_a, auto& end_b) {
    auto channel = [&](IsProcess& src, IsProcess& dst, net::Receiver* rx) {
      net::ChannelConfig cc;
      cc.src = src.id();
      cc.dst = dst.id();
      cc.receiver = rx;
      cc.delay = spec.delay ? spec.delay()
                            : std::make_unique<net::FixedDelay>(
                                  sim::milliseconds(10));
      cc.availability = spec.availability
                            ? spec.availability()
                            : std::make_unique<net::AlwaysUp>();
      cc.link_class = net::LinkClass::kInterSystem;
      cc.fifo = spec.fifo;
      cc.drop_probability = spec.drop_probability;
      return fabric_.add_channel(std::move(cc));
    };
    rec.a.out = channel(*rec.a.isp, *rec.b.isp, &end_b);
    rec.b.out = channel(*rec.b.isp, *rec.a.isp, &end_a);
    end_a.wire(rec.a.out, rec.b.out);
    end_b.wire(rec.b.out, rec.a.out);
    rec.a.transport = &end_a;
    rec.b.transport = &end_b;
  };
  if (spec.reliable) {
    // The simulator's ARQ re-synthesizes reliable FIFO over the faulty
    // channels. Distinct jitter streams so the endpoints never back off in
    // lockstep.
    rec.a.arq = own(std::make_unique<net::ReliableTransport>(fabric_, 1, obs_));
    rec.b.arq = own(std::make_unique<net::ReliableTransport>(fabric_, 3, obs_));
    wire_ends(*rec.a.arq, *rec.b.arq);
  } else {
    wire_ends(*own(std::make_unique<net::FabricLinkTransport>(fabric_)),
              *own(std::make_unique<net::FabricLinkTransport>(fabric_)));
  }

  for (LinkEnd* end : {&rec.a, &rec.b}) {
    // Bytes mode wraps the *send* side in the codec round trip, so by the
    // time a pair enters the channel (and the ARQ, which clones frames for
    // retransmission) it has already survived encode → decode.
    if (wire_ == LinkWire::kLoopbackBytes) {
      end->transport = own(
          std::make_unique<net::LoopbackBytesTransport>(*end->transport, obs_));
    }
    end->link = end->isp->add_link(end->transport);
    end->transport->set_deliver(
        [isp = end->isp, link = end->link](net::MessagePtr msg) {
          isp->deliver_from_link(link, std::move(msg));
        });
  }
}

const LinkRecord& Interconnector::record(std::size_t link_index) const {
  CIM_CHECK(built_ && link_index < specs_.size());
  return records_[link_index];
}

IsProcess& Interconnector::shared_isp(std::size_t system_index) {
  CIM_CHECK(built_ && mode_ == IspMode::kSharedPerSystem);
  CIM_CHECK(system_index < shared_isp_of_system_.size());
  const std::size_t i = shared_isp_of_system_[system_index];
  CIM_CHECK_MSG(i != SIZE_MAX, "system has no interconnection link");
  return *isps_[i];
}

IsProcess& Interconnector::isp_a(std::size_t link_index) {
  return *record(link_index).a.isp;
}

IsProcess& Interconnector::isp_b(std::size_t link_index) {
  return *record(link_index).b.isp;
}

IsProcess& Interconnector::external_isp(std::size_t ext_index) {
  CIM_CHECK(built_ && ext_index < external_specs_.size());
  return *records_[specs_.size() + ext_index].a.isp;
}

std::size_t Interconnector::attach_external_link(
    std::size_t ext_index, net::LinkTransport* transport) {
  CIM_CHECK(built_ && ext_index < external_specs_.size());
  CIM_CHECK(transport != nullptr);
  LinkEnd& end = records_[specs_.size() + ext_index].a;
  CIM_CHECK_MSG(end.transport == nullptr, "external link attached twice");
  end.transport = transport;
  end.link = end.isp->add_link(transport);
  return end.link;
}

}  // namespace cim::isc
