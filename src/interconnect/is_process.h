// The IS-process: the paper's interconnection agent (Section 3).
//
// One IS-process lives in each interconnected system, attached to an
// exclusive MCS-process whose replica set covers all variables. It runs the
// IS-protocol tasks:
//
//   Propagate_out(x, v)    — on the post_update(x, v) upcall: read x (the
//                            read returns v, condition (c), and creates the
//                            causal edge the Lemma 3/6 arguments need), then
//                            send ⟨x, v⟩ to the peer IS-process(es);
//   Propagate_in(y, u)     — on receiving ⟨y, u⟩ from a peer: issue the
//                            write w(y, u), causally propagating u inside
//                            this system;
//   Pre_Propagate_out(x)   — IS-protocol 2 only (Fig. 2), on the
//                            pre_update(x) upcall: read x, obtaining the
//                            previous value s; this read observationally
//                            forces the MCS-process to update replicas in
//                            causal order even if its protocol does not
//                            guarantee the Causal Updating Property.
//
// Protocol selection: systems whose MCS-protocol satisfies Causal Updating
// run IS-protocol 1 (pre-update upcalls disabled, as the paper specifies);
// the others run IS-protocol 2. kForce* overrides exist so experiment E6 can
// demonstrate that protocol 1 alone is insufficient for non-Causal-Updating
// systems.
//
// An IS-process may serve several links of a tree interconnection (the
// paper: "one IS-process could belong to several systems['] interconnections");
// pairs received from one link are applied locally and forwarded to every
// other link (split horizon — never back to the sender). Pairs are never
// echoed: updates caused by this IS-process's own writes generate no
// upcalls.
//
// Links are net::LinkTransport ends (net/link_transport.h): the raw in-sim
// fabric path, a net::ReliableTransport endpoint that synthesizes reliable
// FIFO over a faulty link, the byte-roundtripping loopback around either,
// or a mesh::LinkSession to another OS process (tools/cim_bridge). Every
// end delivers inbound pairs through its deliver callback, which its
// embedder points at deliver_from_link() — the one way into this process.
// Crash/recovery: crash() freezes the IS-process — the single in-flight
// upcall (the MCS apply pipeline blocks on its completion, so there is never
// more than one) is parked, and the link transports go down so arriving
// pairs are lost to the ARQ's retransmission instead of to the application.
// restart() replays the parked upcall against the attached MCS-process
// (re-reading the variable) and brings the transports back up;
// docs/FAULTS.md states the recovery invariants.
#pragma once

#include <cstdint>
#include <vector>

#include "interconnect/pair_msg.h"
#include "mcs/app_process.h"
#include "mcs/upcall.h"
#include "net/link_transport.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace cim::isc {

enum class IsProtocolChoice {
  kAuto,            // protocol 1 iff the MCS satisfies Causal Updating
  kForceProtocol1,  // pre-update upcalls disabled
  kForceProtocol2,  // pre-update upcalls enabled
};

class IsProcess final : public mcs::UpcallHandler {
 public:
  IsProcess(mcs::AppProcess& app, sim::Simulator& sim,
            obs::Observability* obs = nullptr);
  IsProcess(const IsProcess&) = delete;
  IsProcess& operator=(const IsProcess&) = delete;

  /// Register the link end to a peer IS-process; returns the local link
  /// index. The transport is borrowed (the interconnector or the embedding
  /// tool owns it) and must outlive this IS-process.
  std::size_t add_link(net::LinkTransport* transport);

  /// Hand a pair received on `source_link` to the IS-protocol: task
  /// Propagate_in(y, u) — forward to every *other* link (split horizon),
  /// then issue the local write. Every link end's deliver callback lands
  /// here.
  void deliver_from_link(std::size_t source_link, net::MessagePtr msg);

  /// Attach to the MCS-process and select the IS-protocol variant.
  void activate(IsProtocolChoice choice);

  bool pre_reads_enabled() const { return pre_reads_enabled_; }
  ProcId id() const { return app_.id(); }

  // ---- crash / recovery ----------------------------------------------------
  /// Crash the IS-process: park the in-flight upcall (if any), take the link
  /// transports down. Pairs arriving on raw links (no ARQ) while crashed
  /// are lost — only ARQ links recover them.
  void crash();
  /// Restart: bring transports up, then replay the parked upcall in order
  /// (re-reading from the attached MCS-process).
  void restart();
  bool crashed() const { return crashed_; }
  std::uint64_t crash_count() const { return crash_count_; }

  // UpcallHandler (called by the MCS-process).
  void pre_update(VarId var, mcs::DoneFn done) override;
  void post_update(VarId var, Value value, WriteId wid,
                   mcs::DoneFn done) override;

  std::uint64_t pairs_sent() const { return pairs_sent_; }
  std::uint64_t pairs_received() const { return pairs_received_; }

  /// Per-link splits of the totals above, indexed by add_link() order. The
  /// mesh bridge's done/bye convergecast (docs/BRIDGE.md "Termination")
  /// compares pairs_received_on(L) against the peer's announced
  /// pairs_sent_on to decide when a link has drained.
  std::uint64_t pairs_sent_on(std::size_t link) const {
    return pairs_sent_on_.at(link);
  }
  std::uint64_t pairs_received_on(std::size_t link) const {
    return pairs_received_on_.at(link);
  }

 private:
  struct ParkedUpcall {
    bool is_pre = false;
    VarId var;
    WriteId wid;  // post upcalls only
    mcs::DoneFn done;
  };

  void send_pair(std::size_t link, VarId var, Value value, WriteId wid,
                 sim::Time origin_time);
  void run_pre_update(VarId var, mcs::DoneFn done);
  void run_post_update(VarId var, WriteId wid, mcs::DoneFn done);

  mcs::AppProcess& app_;
  sim::Simulator& sim_;
  std::vector<net::LinkTransport*> out_links_;
  bool pre_reads_enabled_ = false;
  bool activated_ = false;
  bool crashed_ = false;
  std::uint64_t crash_count_ = 0;
  std::vector<ParkedUpcall> parked_;
  std::uint64_t pairs_sent_ = 0;
  std::uint64_t pairs_received_ = 0;
  std::vector<std::uint64_t> pairs_sent_on_;      // indexed by link
  std::vector<std::uint64_t> pairs_received_on_;  // indexed by link

  // Cached instrument cells (null without observability).
  obs::TraceSink* trace_ = nullptr;
  obs::Counter* m_pairs_sent_ = nullptr;
  obs::Counter* m_pairs_received_ = nullptr;
  obs::DurationHistogram* h_hop_latency_ = nullptr;
  obs::DurationHistogram* h_propagation_ = nullptr;
  obs::ValueHistogram* h_link_backlog_ = nullptr;
};

}  // namespace cim::isc
