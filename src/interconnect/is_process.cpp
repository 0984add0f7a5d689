#include "interconnect/is_process.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::isc {

IsProcess::IsProcess(mcs::AppProcess& app, sim::Simulator& sim,
                     obs::Observability* obs)
    : app_(app), sim_(sim) {
  CIM_CHECK_MSG(app.is_isp(),
                "IsProcess must be attached to an IS-process slot");
  if (obs != nullptr) {
    trace_ = &obs->trace();
    obs::MetricsRegistry& m = obs->metrics();
    m_pairs_sent_ = &m.counter("isc.pairs_sent");
    m_pairs_received_ = &m.counter("isc.pairs_received");
    h_hop_latency_ = &m.histogram("isc.pair_hop_latency");
    h_propagation_ = &m.histogram("isc.propagation_latency");
    h_link_backlog_ = &m.value_histogram("isc.link_backlog");
  }
}

std::size_t IsProcess::add_link(net::LinkTransport* transport) {
  CIM_CHECK(transport != nullptr);
  out_links_.push_back(transport);
  pairs_sent_on_.push_back(0);
  pairs_received_on_.push_back(0);
  return out_links_.size() - 1;
}

void IsProcess::activate(IsProtocolChoice choice) {
  CIM_CHECK_MSG(!activated_, "IS-process activated twice");
  activated_ = true;
  mcs::McsProcess& mcs = app_.mcs();
  switch (choice) {
    case IsProtocolChoice::kAuto:
      // "Each IS-process will choose which one to use depending on which
      // class of causal MCS-protocol its system is running."
      pre_reads_enabled_ = !mcs.satisfies_causal_updating();
      break;
    case IsProtocolChoice::kForceProtocol1:
      pre_reads_enabled_ = false;
      break;
    case IsProtocolChoice::kForceProtocol2:
      pre_reads_enabled_ = true;
      break;
  }
  mcs.attach_upcall_handler(this);
  // "In this first IS-protocol isp^k disables the MCS-process pre_update
  // upcalls, since it does not need them."
  mcs.set_pre_update_enabled(pre_reads_enabled_);
}

void IsProcess::crash() {
  CIM_CHECK_MSG(!crashed_, "IS-process crashed twice without restart");
  crashed_ = true;
  ++crash_count_;
  // Sever the link endpoints: an ARQ-backed transport drops frames arriving
  // while down and the peer's retransmission recovers them, never losing
  // them to the application. Transports without recovery machinery (raw
  // fabric channels) treat set_down as a no-op and simply lose pairs.
  for (net::LinkTransport* link : out_links_) link->set_down(true);
  CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kIsc, "isp_crash",
            {{"proc", id()}});
}

void IsProcess::restart() {
  CIM_CHECK_MSG(crashed_, "restart of an IS-process that is not crashed");
  crashed_ = false;
  for (net::LinkTransport* link : out_links_) link->set_down(false);
  // Replay the upcalls parked during the outage, in arrival order. The
  // attached MCS-process's apply pipeline blocked on each upcall's `done`,
  // so at most one is parked and its replica state is exactly as it was at
  // crash time — the replayed read still satisfies condition (c).
  std::vector<ParkedUpcall> replay = std::move(parked_);
  parked_.clear();
  CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kIsc, "isp_restart",
            {{"proc", id()},
             {"replayed", static_cast<std::uint64_t>(replay.size())}});
  for (ParkedUpcall& upcall : replay) {
    if (upcall.is_pre) {
      run_pre_update(upcall.var, std::move(upcall.done));
    } else {
      run_post_update(upcall.var, upcall.wid, std::move(upcall.done));
    }
  }
}

void IsProcess::pre_update(VarId var, mcs::DoneFn done) {
  if (crashed_) {
    parked_.push_back(ParkedUpcall{true, var, WriteId{}, std::move(done)});
    return;
  }
  run_pre_update(var, std::move(done));
}

void IsProcess::run_pre_update(VarId var, mcs::DoneFn done) {
  // Task Pre_Propagate_out(x) (Fig. 2): read x, obtaining the previous
  // value s. The value is not used; the read's existence constrains the
  // causal order (Lemma 1).
  CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kIsc, "pre_read",
            {{"proc", id()}, {"var", var}});
  app_.read_now(var);
  done();
}

void IsProcess::post_update(VarId var, Value, WriteId wid, mcs::DoneFn done) {
  if (crashed_) {
    parked_.push_back(ParkedUpcall{false, var, wid, std::move(done)});
    return;
  }
  run_post_update(var, wid, std::move(done));
}

void IsProcess::run_post_update(VarId var, WriteId wid, mcs::DoneFn done) {
  // Task Propagate_out(x, v) (Fig. 1): read x — condition (c) guarantees the
  // read returns v, i.e. write `wid` itself — and send ⟨x, v⟩ to the peer
  // IS-process on every link.
  const StoredValue read = app_.read_now(var);
  CIM_CHECK_MSG(read.wid == wid,
                "condition (c) violated: post-update read must return write "
                    << wid);
  const sim::Time origin = sim_.now();
  for (std::size_t link = 0; link < out_links_.size(); ++link) {
    send_pair(link, var, read.value, wid, origin);
  }
  done();
}

void IsProcess::send_pair(std::size_t link, VarId var, Value value,
                          WriteId wid, sim::Time origin_time) {
  const sim::Time now = sim_.now();
  auto msg = std::make_unique<PairMsg>();
  msg->var = var;
  msg->value = value;
  msg->sent_at = now;
  msg->origin_time = origin_time;
  msg->write_id = wid;
  net::LinkTransport& out = *out_links_[link];
  out.send(std::move(msg));
  ++pairs_sent_;
  ++pairs_sent_on_[link];
  if (m_pairs_sent_ != nullptr) {
    m_pairs_sent_->inc();
    h_link_backlog_->observe(static_cast<std::int64_t>(out.backlog()));
  }
  CIM_TRACE(trace_, now, obs::TraceCategory::kIsc, "pair_out",
            {{"proc", id()},
             {"var", var},
             {"val", value},
             {"wid", wid},
             {"link", static_cast<std::uint64_t>(link)}});
}

void IsProcess::deliver_from_link(std::size_t source_link,
                                  net::MessagePtr msg) {
  CIM_CHECK(source_link < out_links_.size());
  CIM_DCHECK_MSG(dynamic_cast<PairMsg*>(msg.get()) != nullptr,
                 "IS-process received a non-pair message");
  auto* pair = static_cast<PairMsg*>(msg.get());

  const sim::Time now = sim_.now();
  if (crashed_) {
    // Only a raw link (no ARQ) can deliver here while crashed — an ARQ
    // link's endpoint is down and shields us. The pair is lost, exactly
    // as a crashed host loses an in-flight datagram.
    CIM_TRACE(trace_, now, obs::TraceCategory::kIsc, "pair_lost_crashed",
              {{"proc", id()},
               {"var", pair->var},
               {"val", pair->value},
               {"wid", pair->write_id}});
    return;
  }
  ++pairs_received_;
  ++pairs_received_on_[source_link];

  if (m_pairs_received_ != nullptr) {
    m_pairs_received_->inc();
    h_hop_latency_->observe(now - pair->sent_at);
    h_propagation_->observe(now - pair->origin_time);
  }
  CIM_TRACE(trace_, now, obs::TraceCategory::kIsc, "pair_in",
            {{"proc", id()},
             {"var", pair->var},
             {"val", pair->value},
             {"wid", pair->write_id},
             {"hop_ns", now - pair->sent_at},
             {"prop_ns", now - pair->origin_time}});

  // Forward to every other link first (tree interconnection with a shared
  // IS-process: its own writes generate no upcalls, so forwarding must be
  // explicit), then apply locally: task Propagate_in(y, u) issues the write.
  for (std::size_t link = 0; link < out_links_.size(); ++link) {
    if (link != source_link) {
      send_pair(link, pair->var, pair->value, pair->write_id,
                pair->origin_time);
    }
  }
  // Re-issue under the *origin's* wid so the write keeps its identity as it
  // crosses systems.
  app_.write_with_wid(pair->var, pair->value, pair->write_id);
}

}  // namespace cim::isc
