// Base class for MCS-processes (the protocol endpoints of a DSM system).
//
// A concrete protocol (ANBKH, lazy-batch, Attiya-Welch, ...) derives from
// McsProcess and implements the write call handler and the message handler.
// The base class provides:
//
//  * the replica store and the read call: a read is a synchronous call that
//    returns the replica's value and the WriteId of the write that stored it,
//  * channel wiring within the system (full mesh, plus sender resolution),
//  * the IS-process upcall pipeline of Section 2, including write deferral
//    while an upcall is in flight (condition (a): the pre-value must not be
//    modified until the update is done, nor the new value until the
//    post-upcall response),
//  * the apply chain: a protocol keeps its own buffer and readiness rule and
//    implements apply_next(); the base class owns the one re-entry guard,
//    the wait while an upcall is parked (its IS-process crashed), and the
//    one resume site,
//  * the Causal Updating Property trait (Property 1) that selects which
//    IS-protocol the interconnect layer runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/vec_queue.h"

#include "common/ids.h"
#include "common/rng.h"
#include "common/value.h"
#include "common/var_store.h"
#include "mcs/memory_observer.h"
#include "mcs/types.h"
#include "mcs/upcall.h"
#include "net/fabric.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace cim::mcs {

/// Everything a protocol instance needs from its environment.
struct McsContext {
  ProcId id;
  std::uint16_t local_index = 0;
  std::uint16_t num_procs = 0;
  sim::Simulator* simulator = nullptr;
  net::Fabric* fabric = nullptr;
  std::uint64_t rng_seed = 0;
  MemoryObserver* observer = nullptr;   // may be null
  obs::Observability* obs = nullptr;    // may be null (no metrics/tracing)
};

/// Where the apply chain continues once an update's upcalls have completed.
enum class ApplyResume {
  /// In a fresh simulator event: each update of a buffered burst applies in
  /// its own event (ANBKH and partial-rep, aw-seq, tob-causal).
  kPosted,
  /// Within the event that completed the upcall: a lazy-batch batch, or a
  /// burst of ready updates at cbcast-dsm (ANBKH with self-delivery),
  /// applies within one event.
  kInline,
};

class McsProcess : public net::Receiver {
 public:
  explicit McsProcess(const McsContext& ctx,
                      ApplyResume resume = ApplyResume::kPosted);
  ~McsProcess() override = default;

  ProcId id() const { return ctx_.id; }
  std::uint16_t local_index() const { return ctx_.local_index; }
  std::uint16_t num_procs() const { return ctx_.num_procs; }

  // ---- wiring (called by System::finalize) -------------------------------
  /// out[j] = channel to local process j; out[local_index()] is unused.
  void set_out_channels(std::vector<net::ChannelId> out);
  /// Declare that messages arriving on `ch` come from local process `from`.
  void register_in_channel(net::ChannelId ch, std::uint16_t from);

  // ---- application-facing calls ------------------------------------------
  /// Serve a read call: the replica's value and the write that stored it
  /// (an invalid wid for the initial value). Reads are served at once, even
  /// while an upcall is in flight (condition (b)); they then return the
  /// pre/post value (condition (c)). A protocol overrides this only to
  /// refuse a read.
  virtual StoredValue read(VarId var) const { return store_.get(var); }

  /// The replica's value of `var`, without read()'s checks.
  Value replica_value(VarId var) const { return store_.get(var).value; }

  /// Serve a write call. While an upcall is in flight the call is deferred
  /// (condition (a)); otherwise it is passed to the protocol's do_write.
  /// `wid` is the globally-unique write id minted by the issuing application
  /// process (or carried over from the origin system by an IS-process).
  void handle_write(VarId var, Value value, WriteId wid, WriteCallback cb);

  // ---- IS-process support -------------------------------------------------
  void attach_upcall_handler(UpcallHandler* handler) {
    upcall_handler_ = handler;
  }
  void set_pre_update_enabled(bool enabled) { pre_update_enabled_ = enabled; }
  bool has_upcall_handler() const { return upcall_handler_ != nullptr; }
  bool pre_update_enabled() const { return pre_update_enabled_; }
  bool upcall_in_flight() const { return upcall_in_flight_; }

  /// Property 1 of the paper: does this protocol update the replicas of the
  /// IS-process's MCS-process in causal order? Decides which IS-protocol the
  /// interconnect layer uses (Fig. 1 alone, or with Fig. 2's pre-read task).
  virtual bool satisfies_causal_updating() const = 0;

  virtual const char* protocol_name() const = 0;

 protected:
  /// Protocol implementation of a (non-deferred) write call.
  virtual void do_write(VarId var, Value value, WriteId wid,
                        WriteCallback cb) = 0;

  /// The protocol's apply-chain hook: take the next ready update out of the
  /// protocol's buffer and apply it through apply_with_upcalls (or consume
  /// one that changes no replica, e.g. a causal marker) and return true; or
  /// return false when none is ready. Only the chain calls it.
  virtual bool apply_next() = 0;

  /// An update may have become ready: run the apply chain, unless it is
  /// already running or waits on a parked upcall (it then picks the update
  /// up itself).
  void apply_ready();

  /// Apply one replica update through the upcall discipline. `own_write` is
  /// true when the update stems from a write issued by the attached
  /// application process itself (such updates never generate upcalls).
  /// `apply` performs the replica mutation. Call it at most once per
  /// apply_next(); the chain continues when the upcalls have completed.
  void apply_with_upcalls(VarId var, Value value, WriteId wid, bool own_write,
                          DoneFn apply);

  /// Store write `wid`'s w(var)value in this process's replica.
  void set_replica(VarId var, Value value, WriteId wid) {
    store_.set(var, value, wid);
  }

  sim::Simulator& simulator() { return *ctx_.simulator; }
  net::Fabric& fabric() { return *ctx_.fabric; }
  Rng& rng() { return rng_; }
  obs::TraceSink* trace() { return trace_; }

  // ---- protocol instrumentation (docs/OBSERVABILITY.md, `proto.*`) --------
  // Each helper is the one call a protocol makes per event: it bumps the
  // counter, records the trace event, then reports to the MemoryObserver.
  /// A local write was issued and propagated. `applied_locally`: the writer
  /// already applied it to its own replica, outside the apply pipeline
  /// (read-your-writes); observers see that apply via on_apply only.
  void note_update_issued(VarId var, Value value, WriteId wid,
                          bool applied_locally);
  /// A remote update entered the protocol's reorder/batch buffer; sample its
  /// occupancy *after* insertion.
  void note_update_buffered(std::size_t buffer_size);
  /// A remote update was applied to the replica. `received_at` (if known)
  /// feeds the causal-wait histogram: time the update sat buffered until its
  /// causal dependencies arrived.
  void note_update_applied(VarId var, Value value, WriteId wid);
  void note_update_applied(VarId var, Value value, WriteId wid,
                           sim::Time received_at);

  const std::vector<net::ChannelId>& out_channels() const { return out_; }
  /// Sender local index of a registered inbound channel.
  std::uint16_t sender_of(net::ChannelId ch) const;
  /// Send `msg` to local process `to`.
  void send_to(std::uint16_t to, net::MessagePtr msg);

 private:
  void apply_chain();
  void resume_chain();
  void finish_upcall();
  void drain_deferred_writes();
  void report_applied(VarId var, Value value, WriteId wid);

  McsContext ctx_;
  ApplyResume resume_;
  Rng rng_;
  VarStore store_;
  // Cached instrument cells (null when ctx.obs is null).
  obs::TraceSink* trace_ = nullptr;
  obs::Counter* m_issued_ = nullptr;
  obs::Counter* m_applied_ = nullptr;
  obs::DurationHistogram* h_causal_wait_ = nullptr;
  obs::ValueHistogram* h_buffer_ = nullptr;
  std::vector<net::ChannelId> out_;
  // Sender lookup per inbound message: a flat vector indexed by channel id
  // (channel ids are dense, fabric-assigned). kNoSender marks unregistered.
  static constexpr std::uint16_t kNoSender = 0xffff;
  std::vector<std::uint16_t> in_senders_;

  UpcallHandler* upcall_handler_ = nullptr;
  bool pre_update_enabled_ = true;
  bool upcall_in_flight_ = false;
  // The apply chain's re-entry guard: it is running, or parked.
  bool applying_ = false;
  // It waits for an upcall that a crashed IS-process holds.
  bool parked_ = false;

  struct DeferredWrite {
    VarId var;
    Value value;
    WriteId wid;
    WriteCallback cb;
  };
  VecQueue<DeferredWrite> deferred_writes_;
};

/// Factory invoked by System::finalize for each local process slot.
using ProtocolFactory =
    std::function<std::unique_ptr<McsProcess>(const McsContext&)>;

}  // namespace cim::mcs
