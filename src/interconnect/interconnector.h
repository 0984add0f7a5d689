// Interconnection of n propagation-based causal systems (Corollary 1).
//
// The Interconnector takes a set of (not yet finalized) systems and a set of
// links, validates that the topology is a tree ("we interconnect the
// original systems in pairs avoiding the creation of cycles"), reserves the
// IS-process slots, finalizes the systems, and wires the inter-system FIFO
// channels.
//
// Two IS-process placements are supported:
//  * kSharedPerSystem — one IS-process per system serving all of its links.
//    This matches the Section 6 message accounting: with m systems, m
//    IS-processes are added and each write generates n + m - 1 messages.
//  * kPerLink — a dedicated IS-process pair per link, matching the paper's
//    inductive pairwise construction (Corollary 1) literally; forwarding
//    between subtrees then happens through upcalls at the other IS-processes
//    of the shared system.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "interconnect/is_process.h"
#include "mcs/system.h"
#include "net/availability.h"
#include "net/delay.h"
#include "net/fabric.h"
#include "net/link_transport.h"

namespace cim::net {
class ReliableTransport;  // net/reliable_transport.h
}  // namespace cim::net

namespace cim::isc {

enum class IspMode { kSharedPerSystem, kPerLink };

/// How pairs cross the links (net/link_transport.h):
///  * kInMemory      — pointer handoff on fabric channels (zero-copy, the
///    allocation-free default; golden traces are recorded in this mode).
///  * kLoopbackBytes — every pair is round-tripped through the wire codec
///    (encode → decode) before it enters the channel, so the whole
///    federation exercises the byte format while staying in one process.
///  * kDefault       — resolved by the embedding layer; Federation maps it
///    to kLoopbackBytes when CIM_LINK_WIRE=bytes is set, kInMemory
///    otherwise. The Interconnector itself treats it as kInMemory.
enum class LinkWire { kDefault, kInMemory, kLoopbackBytes };

/// A link whose far side lives in another OS process (tools/cim_bridge): the
/// interconnector reserves and activates the local IS-process, and the
/// embedding tool attaches the transport with attach_external_link() once
/// the socket is up. External links are numbered after the in-federation
/// links in the unified net.link.<i>.* metrics.
struct ExternalLinkSpec {
  std::size_t system = 0;  // index into the systems vector
  IsProtocolChoice choice = IsProtocolChoice::kAuto;
};

struct LinkSpec {
  std::size_t system_a = 0;  // index into the systems vector
  std::size_t system_b = 0;
  /// Delay model factory, one fresh model per direction. Default: 10ms.
  std::function<net::DelayModelPtr()> delay;
  /// Availability schedule factory, one per direction. Default: always up.
  std::function<net::AvailabilityPtr()> availability;
  /// IS-protocol selection for each side's IS-process.
  IsProtocolChoice choice_a = IsProtocolChoice::kAuto;
  IsProtocolChoice choice_b = IsProtocolChoice::kAuto;

  /// Fault injection for experiment E10. The paper requires the link to be a
  /// *reliable FIFO* channel; these knobs deliberately break that assumption
  /// to demonstrate why it is needed (non-FIFO links let pair order invert —
  /// causality violations; lossy links lose updates — liveness violations).
  bool fifo = true;
  double drop_probability = 0.0;

  /// Interpose a ReliableTransport endpoint pair (ARQ) on this link,
  /// re-synthesizing the reliable-FIFO assumption over a faulty channel.
  /// With `reliable` set, fifo=false / drop_probability>0 / scripted faults
  /// degrade latency but never correctness.
  bool reliable = false;
};

/// One end of a link, as build() (or attach_external_link) wired it.
struct LinkEnd {
  IsProcess* isp = nullptr;  // the IS-process that holds this end
  std::size_t link = 0;      // its link index in that IS-process
  net::ChannelId out{};      // outbound fabric channel (in-federation links)
  /// What the IS-process sends through (the loopback wrapper in bytes mode);
  /// null until an external link is attached.
  net::LinkTransport* transport = nullptr;
  net::ReliableTransport* arq = nullptr;  // the ARQ end of a `reliable` link
};

/// One record per link. An external link's far side lives in another OS
/// process, so only its `a` end is set.
struct LinkRecord {
  LinkEnd a;
  LinkEnd b;
};

class Interconnector {
 public:
  Interconnector(net::Fabric& fabric, std::vector<mcs::System*> systems,
                 std::vector<LinkSpec> links,
                 IspMode mode = IspMode::kSharedPerSystem,
                 obs::Observability* obs = nullptr,
                 LinkWire wire = LinkWire::kDefault,
                 std::vector<ExternalLinkSpec> external_links = {});

  /// Reserve IS slots, finalize all systems, create IS-processes and the
  /// inter-system channels, and activate the IS-protocols.
  void build();

  IspMode mode() const { return mode_; }
  std::size_t num_links() const { return specs_.size(); }

  /// Shared mode: the IS-process of a system (requires the system to have at
  /// least one link). Per-link mode: use isp_a/isp_b.
  IsProcess& shared_isp(std::size_t system_index);
  IsProcess& isp_a(std::size_t link_index);
  IsProcess& isp_b(std::size_t link_index);

  /// All IS-processes created by build().
  const std::vector<std::unique_ptr<IsProcess>>& isps() const { return isps_; }

  /// Every link's record (valid after build()): the num_links()
  /// in-federation links, then the external links — the numbering of the
  /// net.link.<l>.* metrics.
  const std::vector<LinkRecord>& links() const { return records_; }

  /// Resolved wire mode (never kDefault after construction).
  LinkWire link_wire() const { return wire_; }

  // ---- external links (tools/cim_bridge) -----------------------------------
  std::size_t num_external_links() const { return external_specs_.size(); }

  /// The local IS-process of external link `ext_index` (valid after build()).
  IsProcess& external_isp(std::size_t ext_index);

  /// Attach the socket-backed transport of external link `ext_index` to its
  /// IS-process; returns the IS-process's link index (the transport's
  /// deliver callback passes it to IsProcess::deliver_from_link). The
  /// transport is borrowed and must outlive the interconnector. One attach
  /// per link.
  std::size_t attach_external_link(std::size_t ext_index,
                                   net::LinkTransport* transport);

 private:
  void validate_tree() const;
  /// Make both ends of in-federation link `index` and their channels.
  void wire_link(std::size_t index);
  const LinkRecord& record(std::size_t link_index) const;

  net::Fabric& fabric_;
  std::vector<mcs::System*> systems_;
  std::vector<LinkSpec> specs_;
  IspMode mode_;
  obs::Observability* obs_ = nullptr;
  LinkWire wire_ = LinkWire::kInMemory;
  std::vector<ExternalLinkSpec> external_specs_;
  bool built_ = false;

  std::vector<std::unique_ptr<IsProcess>> isps_;
  std::vector<std::size_t> shared_isp_of_system_;  // index into isps_
  std::vector<LinkRecord> records_;
  std::vector<std::unique_ptr<net::LinkTransport>> ends_;  // owned link ends
};

}  // namespace cim::isc
