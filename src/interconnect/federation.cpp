#include "interconnect/federation.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.h"
#include "net/reliable_transport.h"

namespace cim::isc {

namespace {

// FederationConfig::link_wire = kDefault defers to the environment so the
// whole test suite (and any example) can be flipped to bytes mode without
// code changes: CIM_LINK_WIRE=bytes ctest ... (see tests/CMakeLists.txt's
// bytes_mode suite).
LinkWire resolve_link_wire(LinkWire requested) {
  if (requested != LinkWire::kDefault) return requested;
  const char* env = std::getenv("CIM_LINK_WIRE");
  if (env != nullptr && std::strcmp(env, "bytes") == 0)
    return LinkWire::kLoopbackBytes;
  return LinkWire::kInMemory;
}

// Feeds the online monitor from the typed write-lifecycle hooks. The
// checker sits below mcs in the build (cim_mcs links cim_checker), so the
// monitor cannot derive from mcs::MemoryObserver itself.
class MonitorFeed final : public mcs::MemoryObserver {
 public:
  explicit MonitorFeed(chk::OnlineMonitor& monitor) : monitor_(monitor) {}

  void on_update_issued(ProcId writer, VarId var, Value, WriteId wid,
                        sim::Time t) override {
    monitor_.on_write_issue(t.ns, writer, wid, var);
  }
  void on_read_done(ProcId reader, VarId var, Value, WriteId wid,
                    sim::Time t) override {
    monitor_.on_read_done(t.ns, reader, var, wid);
  }

 private:
  chk::OnlineMonitor& monitor_;
};

}  // namespace

Federation::Federation(FederationConfig config)
    : obs_(config.obs), fabric_(sim_, config.seed) {
  CIM_CHECK_MSG(!config.systems.empty(), "federation needs at least one system");
  if (config.monitor.enabled) {
    monitor_ =
        std::make_unique<chk::OnlineMonitor>(&obs_.trace(), &obs_.metrics());
    monitor_feed_ = std::make_unique<MonitorFeed>(*monitor_);
    mux_.add(monitor_feed_.get());
  }
  fabric_.set_observability(&obs_);
  for (mcs::SystemConfig& sc : config.systems) {
    systems_.push_back(std::make_unique<mcs::System>(
        sim_, fabric_, recorder_, std::move(sc), &mux_, &obs_));
  }
  std::vector<mcs::System*> raw;
  raw.reserve(systems_.size());
  for (auto& s : systems_) raw.push_back(s.get());
  interconnector_ = std::make_unique<Interconnector>(
      fabric_, std::move(raw), std::move(config.links), config.isp_mode,
      &obs_, resolve_link_wire(config.link_wire),
      std::move(config.external_links));
  interconnector_->build();
  install_faults(config.faults);
}

void Federation::install_faults(const sim::FaultPlan& plan) {
  plan.validate();
  obs::MetricsRegistry& m = obs_.metrics();
  // Registered unconditionally: every snapshot carries the fault counters,
  // zero-valued on calm runs.
  obs::Counter* injected = &m.counter("faults.injected");
  obs::Counter* partitions = &m.counter("faults.partitions");
  obs::Counter* bursts = &m.counter("faults.bursts");
  obs::Counter* crashes = &m.counter("faults.crashes");
  obs::Counter* restarts = &m.counter("faults.restarts");
  if (plan.empty()) return;
  obs::TraceSink* trace = &obs_.trace();

  for (const sim::FaultPlan::Partition& p : plan.partitions) {
    CIM_CHECK_MSG(p.link < interconnector_->num_links(),
                  "fault plan partitions an unknown link");
    const net::ChannelId ab = interconnector_->links()[p.link].a.out;
    const net::ChannelId ba = interconnector_->links()[p.link].b.out;
    sim_.at(p.begin, [this, injected, partitions, trace, p, ab, ba] {
      fabric_.set_partitioned(ab, true);
      fabric_.set_partitioned(ba, true);
      injected->inc();
      partitions->inc();
      CIM_TRACE(trace, sim_.now(), obs::TraceCategory::kSim, "fault_partition",
                {{"link", static_cast<std::uint64_t>(p.link)}});
    });
    sim_.at(p.end, [this, trace, p, ab, ba] {
      fabric_.set_partitioned(ab, false);
      fabric_.set_partitioned(ba, false);
      CIM_TRACE(trace, sim_.now(), obs::TraceCategory::kSim, "fault_heal",
                {{"link", static_cast<std::uint64_t>(p.link)}});
    });
  }

  for (const sim::FaultPlan::BurstDrop& b : plan.bursts) {
    CIM_CHECK_MSG(b.link < interconnector_->num_links(),
                  "fault plan bursts an unknown link");
    const net::ChannelId ab = interconnector_->links()[b.link].a.out;
    const net::ChannelId ba = interconnector_->links()[b.link].b.out;
    sim_.at(b.begin, [this, injected, bursts, trace, b, ab, ba] {
      fabric_.set_burst_drop(ab, b.drop_probability);
      fabric_.set_burst_drop(ba, b.drop_probability);
      injected->inc();
      bursts->inc();
      CIM_TRACE(trace, sim_.now(), obs::TraceCategory::kSim, "fault_burst_begin",
                {{"link", static_cast<std::uint64_t>(b.link)},
                 {"drop", b.drop_probability}});
    });
    sim_.at(b.end, [this, trace, b, ab, ba] {
      fabric_.set_burst_drop(ab, 0.0);
      fabric_.set_burst_drop(ba, 0.0);
      CIM_TRACE(trace, sim_.now(), obs::TraceCategory::kSim, "fault_burst_end",
                {{"link", static_cast<std::uint64_t>(b.link)}});
    });
  }

  for (const sim::FaultPlan::CrashRestart& c : plan.crashes) {
    CIM_CHECK_MSG(c.system < systems_.size(),
                  "fault plan crashes an unknown system");
    const SystemId sid = systems_[c.system]->id();
    sim_.at(c.crash_at, [this, injected, crashes, trace, c, sid] {
      for (const auto& isp : interconnector_->isps()) {
        if (isp->id().system == sid) isp->crash();
      }
      injected->inc();
      crashes->inc();
      CIM_TRACE(trace, sim_.now(), obs::TraceCategory::kSim, "fault_crash",
                {{"system", static_cast<std::uint64_t>(c.system)}});
    });
    sim_.at(c.restart_at, [this, restarts, trace, c, sid] {
      for (const auto& isp : interconnector_->isps()) {
        if (isp->id().system == sid) isp->restart();
      }
      restarts->inc();
      CIM_TRACE(trace, sim_.now(), obs::TraceCategory::kSim, "fault_restart",
                {{"system", static_cast<std::uint64_t>(c.system)}});
    });
  }
}

obs::MetricsSnapshot Federation::metrics_snapshot() {
  obs::MetricsRegistry& m = obs_.metrics();
  m.gauge("sim.now_ns").set(sim_.now().ns);
  m.gauge("sim.events_fired").set(
      static_cast<std::int64_t>(sim_.events_fired()));
  m.gauge("sim.queue_depth").set(static_cast<std::int64_t>(sim_.pending()));
  m.gauge("sim.queue_depth_peak")
      .set(static_cast<std::int64_t>(sim_.max_pending()));
  m.gauge("net.in_flight")
      .set(static_cast<std::int64_t>(fabric_.total_in_flight()));
  // Per-channel loss and availability queueing, refreshed from the fabric's
  // ChannelStats (documented as net.channel.<ch>.* — the numeric channel id
  // substitutes for <ch>).
  for (std::size_t c = 0; c < fabric_.num_channels(); ++c) {
    const net::ChannelId id{static_cast<std::uint32_t>(c)};
    const net::ChannelStats& cs = fabric_.channel_stats(id);
    const std::string prefix = "net.channel." + std::to_string(c);
    m.gauge(prefix + ".dropped").set(static_cast<std::int64_t>(cs.dropped));
    m.gauge(prefix + ".availability_waits")
        .set(static_cast<std::int64_t>(cs.availability_waits));
  }
  for (std::size_t c = 0; c < obs::kNumTraceCategories; ++c) {
    const auto cat = static_cast<obs::TraceCategory>(c);
    m.gauge(std::string("trace.events.") + obs::to_string(cat))
        .set(static_cast<std::int64_t>(obs_.trace().category_count(cat)));
  }
  m.gauge("trace.dropped")
      .set(static_cast<std::int64_t>(obs_.trace().dropped()));
  // Unified per-link endpoint state across all transports (net.link.<l>.
  // <side>.* — the link index substitutes for <l>; side `a`/`b`, external
  // links single-sided as `a` and numbered after the in-federation links).
  // Every end reports its backlog; ARQ ends add the transport gauges
  // (schema v1 called these net.endpoint.<2l+side>.*); serializing ends
  // (bytes mode, TCP) add byte counts.
  const auto emit_end = [&m](const std::string& prefix, const LinkEnd& end) {
    const net::LinkTransport* ep = end.transport;
    if (ep == nullptr) return;
    m.gauge(prefix + ".backlog")
        .set(static_cast<std::int64_t>(ep->backlog()));
    if (const net::ReliableTransport* arq = end.arq) {
      m.gauge(prefix + ".retransmits")
          .set(static_cast<std::int64_t>(arq->retransmits()));
      m.gauge(prefix + ".timeouts")
          .set(static_cast<std::int64_t>(arq->timeouts()));
      m.gauge(prefix + ".dups_suppressed")
          .set(static_cast<std::int64_t>(arq->dups_suppressed()));
      m.gauge(prefix + ".acks_sent")
          .set(static_cast<std::int64_t>(arq->acks_sent()));
      m.gauge(prefix + ".down_drops")
          .set(static_cast<std::int64_t>(arq->dropped_while_down()));
      m.gauge(prefix + ".delivered")
          .set(static_cast<std::int64_t>(arq->delivered()));
      m.gauge(prefix + ".window_in_use")
          .set(static_cast<std::int64_t>(arq->window_in_use()));
      m.gauge(prefix + ".queued")
          .set(static_cast<std::int64_t>(arq->queued()));
    }
    if (ep->serializing()) {
      m.gauge(prefix + ".bytes_out")
          .set(static_cast<std::int64_t>(ep->wire_bytes_out()));
      m.gauge(prefix + ".bytes_in")
          .set(static_cast<std::int64_t>(ep->wire_bytes_in()));
    }
  };
  const std::vector<LinkRecord>& links = interconnector_->links();
  for (std::size_t l = 0; l < links.size(); ++l) {
    const std::string prefix = "net.link." + std::to_string(l);
    emit_end(prefix + ".a", links[l].a);
    emit_end(prefix + ".b", links[l].b);
  }
  return m.snapshot();
}

chk::History Federation::system_history(std::size_t index) const {
  CIM_CHECK(index < systems_.size());
  return recorder_.system(systems_[index]->id());
}

}  // namespace cim::isc
