#include "mcs/system.h"

#include <utility>

#include "common/check.h"

namespace cim::mcs {

System::System(sim::Simulator& simulator, net::Fabric& fabric,
               chk::Recorder& recorder, SystemConfig config,
               MemoryObserver* observer, obs::Observability* obs)
    : sim_(simulator), fabric_(fabric), recorder_(recorder),
      config_(std::move(config)), observer_(observer), obs_(obs) {
  CIM_CHECK_MSG(config_.protocol != nullptr, "system needs a protocol factory");
  CIM_CHECK_MSG(config_.num_app_processes >= 1,
                "system needs at least one application process");
  if (!config_.intra_delay) {
    config_.intra_delay = [] {
      return std::make_unique<net::FixedDelay>(sim::milliseconds(1));
    };
  }
}

ProcId System::add_isp_slot() {
  CIM_CHECK_MSG(!finalized_, "cannot add IS-process slot after finalize()");
  const std::uint16_t index =
      static_cast<std::uint16_t>(config_.num_app_processes + isp_slots_);
  ++isp_slots_;
  return ProcId{config_.id, index};
}

std::uint16_t System::num_processes() const {
  return static_cast<std::uint16_t>(config_.num_app_processes + isp_slots_);
}

bool System::is_isp_slot(std::uint16_t local_index) const {
  return local_index >= config_.num_app_processes &&
         local_index < num_processes();
}

void System::finalize() {
  CIM_CHECK_MSG(!finalized_, "finalize() called twice");
  finalized_ = true;

  const std::uint16_t n = num_processes();
  Rng seeder(config_.seed);

  // 1. Protocol processes.
  for (std::uint16_t i = 0; i < n; ++i) {
    McsContext ctx;
    ctx.id = ProcId{config_.id, i};
    ctx.local_index = i;
    ctx.num_procs = n;
    ctx.simulator = &sim_;
    ctx.fabric = &fabric_;
    ctx.rng_seed = seeder.next();
    ctx.observer = observer_;
    ctx.obs = obs_;
    mcs_.push_back(config_.protocol(ctx));
    CIM_CHECK(mcs_.back() != nullptr);
  }

  // 2. Full mesh of intra-system FIFO channels.
  for (std::uint16_t i = 0; i < n; ++i) {
    std::vector<net::ChannelId> out(n);
    for (std::uint16_t j = 0; j < n; ++j) {
      if (j == i) continue;
      net::ChannelConfig cc;
      cc.src = ProcId{config_.id, i};
      cc.dst = ProcId{config_.id, j};
      cc.receiver = mcs_[j].get();
      cc.delay = config_.intra_delay();
      cc.link_class = net::LinkClass::kIntraSystem;
      out[j] = fabric_.add_channel(std::move(cc));
      mcs_[j]->register_in_channel(out[j], i);
    }
    mcs_[i]->set_out_channels(std::move(out));
  }

  // 3. Application processes (IS-process slots flagged as such).
  for (std::uint16_t i = 0; i < n; ++i) {
    apps_.push_back(std::make_unique<AppProcess>(
        ProcId{config_.id, i}, is_isp_slot(i), *mcs_[i], recorder_, sim_,
        observer_, obs_));
  }
}

AppProcess& System::app(std::uint16_t local_index) {
  CIM_CHECK_MSG(finalized_, "finalize() the system first");
  CIM_CHECK(local_index < apps_.size());
  return *apps_[local_index];
}

McsProcess& System::mcs(std::uint16_t local_index) {
  CIM_CHECK_MSG(finalized_, "finalize() the system first");
  CIM_CHECK(local_index < mcs_.size());
  return *mcs_[local_index];
}

}  // namespace cim::mcs
