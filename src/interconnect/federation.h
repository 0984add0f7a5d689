// Federation: one-stop ownership of a complete interconnection experiment —
// the simulator, the message fabric, the history recorder, the systems, and
// the Interconnector. This is the top of the public API; examples, tests,
// and benches build a FederationConfig and run it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "checker/history.h"
#include "checker/online_monitor.h"
#include "interconnect/interconnector.h"
#include "mcs/memory_observer.h"
#include "mcs/system.h"
#include "net/fabric.h"
#include "obs/obs.h"
#include "sim/faults.h"
#include "sim/simulator.h"

namespace cim::isc {

struct FederationConfig {
  std::uint64_t seed = 1;
  std::vector<mcs::SystemConfig> systems;
  std::vector<LinkSpec> links;  // must form a forest (tree per component)
  IspMode isp_mode = IspMode::kSharedPerSystem;
  /// How pairs cross the links (see isc::LinkWire): in-memory pointer
  /// handoff (default) or a full wire-codec round trip per pair. kDefault
  /// resolves through the CIM_LINK_WIRE environment variable ("bytes" →
  /// kLoopbackBytes), which is how the test suite reruns every federation
  /// test in bytes mode without touching each test.
  LinkWire link_wire = LinkWire::kDefault;
  /// Links whose far side lives in another OS process (tools/cim_bridge):
  /// the local IS-process is created and activated by build(); the tool
  /// attaches the socket transport via
  /// interconnector().attach_external_link().
  std::vector<ExternalLinkSpec> external_links;
  /// Observability options (docs/OBSERVABILITY.md). Metrics are always
  /// collected; set obs.trace.enabled to capture structured trace events.
  obs::ObsOptions obs;
  /// Scripted chaos (docs/FAULTS.md): link indices address `links`, system
  /// indices address `systems`. Partitions and bursts hit both directions of
  /// the link; crashes hit every IS-process of the system. Injection is
  /// scheduled as simulator events at construction time.
  sim::FaultPlan faults;
  /// Online causal-consistency monitor (checker/online_monitor.h). Enabling
  /// it registers the monitor on the federation's observer, fed by the
  /// typed write-lifecycle hooks, so violations surface on
  /// `checker.violations` (and, when obs.trace records the chk category, as
  /// `chk`/`violation` events) *during* the run. It does not enable tracing
  /// or change obs.trace.category_mask.
  chk::MonitorOptions monitor;
};

class Federation {
 public:
  explicit Federation(FederationConfig config);
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  sim::Simulator& simulator() { return sim_; }
  net::Fabric& fabric() { return fabric_; }
  chk::Recorder& recorder() { return recorder_; }
  Interconnector& interconnector() { return *interconnector_; }
  obs::Observability& observability() { return obs_; }
  /// The online monitor, or null when config.monitor.enabled was false.
  chk::OnlineMonitor* monitor() { return monitor_.get(); }

  /// Pull-based metrics snapshot: refreshes the point-in-time gauges
  /// (sim.*, net.in_flight, trace.events.*) and returns the registry's
  /// current state. See docs/OBSERVABILITY.md for the catalog.
  obs::MetricsSnapshot metrics_snapshot();

  std::size_t num_systems() const { return systems_.size(); }
  mcs::System& system(std::size_t index) { return *systems_.at(index); }

  /// Register a stats tracker; it will observe every write issue, every
  /// replica application and every completed read in all systems.
  void add_observer(mcs::MemoryObserver* observer) { mux_.add(observer); }

  /// Run the simulation to quiescence (or until `deadline`).
  void run() { sim_.run(); }
  void run_until(sim::Time deadline) { sim_.run_until(deadline); }

  /// α^T: the computation of the interconnected system S^T (IS-processes
  /// excluded, as in Section 4).
  chk::History federation_history() const { return recorder_.federation(); }

  /// α^k: the computation of one system (its IS-processes included).
  chk::History system_history(std::size_t index) const;

 private:
  void install_faults(const sim::FaultPlan& plan);

  obs::Observability obs_;  // first: outlives everything that instruments
  std::unique_ptr<chk::OnlineMonitor> monitor_;
  std::unique_ptr<mcs::MemoryObserver> monitor_feed_;  // feeds monitor_
  sim::Simulator sim_;
  net::Fabric fabric_;
  chk::Recorder recorder_;
  mcs::ObserverMux mux_;
  std::vector<std::unique_ptr<mcs::System>> systems_;
  std::unique_ptr<Interconnector> interconnector_;
};

}  // namespace cim::isc
