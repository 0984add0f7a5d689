#include "mcs/mcs_process.h"

#include <utility>

#include "common/check.h"

namespace cim::mcs {

McsProcess::McsProcess(const McsContext& ctx, ApplyResume resume)
    : ctx_(ctx), resume_(resume), rng_(ctx.rng_seed) {
  if (ctx_.obs != nullptr) {
    trace_ = &ctx_.obs->trace();
    obs::MetricsRegistry& m = ctx_.obs->metrics();
    m_issued_ = &m.counter("proto.updates_issued");
    m_applied_ = &m.counter("proto.updates_applied");
    h_causal_wait_ = &m.histogram("proto.causal_wait");
    h_buffer_ = &m.value_histogram("proto.buffer_occupancy");
  }
}

void McsProcess::note_update_issued(VarId var, Value value, WriteId wid,
                                    bool applied_locally) {
  if (m_issued_ != nullptr) m_issued_->inc();
  const sim::Time now = simulator().now();
  CIM_TRACE(trace_, now, obs::TraceCategory::kProto, "update_issued",
            {{"proc", id()}, {"var", var}, {"val", value}, {"wid", wid}});
  if (MemoryObserver* o = ctx_.observer; o != nullptr) {
    o->on_write_issued(id(), var, value, now);
    if (applied_locally) o->on_apply(id(), var, value, now);
    o->on_update_issued(id(), var, value, wid, now);
  }
}

void McsProcess::note_update_buffered(std::size_t buffer_size) {
  if (h_buffer_ != nullptr) {
    h_buffer_->observe(static_cast<std::int64_t>(buffer_size));
  }
  CIM_TRACE(trace_, simulator().now(), obs::TraceCategory::kProto,
            "update_buffered", {{"proc", id()}, {"buf", buffer_size}});
}

void McsProcess::note_update_applied(VarId var, Value value, WriteId wid) {
  if (m_applied_ != nullptr) m_applied_->inc();
  CIM_TRACE(trace_, simulator().now(), obs::TraceCategory::kProto,
            "update_applied",
            {{"proc", id()}, {"var", var}, {"val", value}, {"wid", wid}});
  report_applied(var, value, wid);
}

void McsProcess::note_update_applied(VarId var, Value value, WriteId wid,
                                     sim::Time received_at) {
  if (m_applied_ != nullptr) {
    m_applied_->inc();
    h_causal_wait_->observe(simulator().now() - received_at);
  }
  CIM_TRACE(trace_, simulator().now(), obs::TraceCategory::kProto,
            "update_applied",
            {{"proc", id()},
             {"var", var},
             {"val", value},
             {"wid", wid},
             {"wait_ns", simulator().now() - received_at}});
  report_applied(var, value, wid);
}

void McsProcess::report_applied(VarId var, Value value, WriteId wid) {
  if (MemoryObserver* o = ctx_.observer; o != nullptr) {
    const sim::Time now = simulator().now();
    o->on_apply(id(), var, value, now);
    o->on_update_applied(id(), var, value, wid, now);
  }
}

void McsProcess::set_out_channels(std::vector<net::ChannelId> out) {
  CIM_CHECK(out.size() == ctx_.num_procs);
  out_ = std::move(out);
}

void McsProcess::register_in_channel(net::ChannelId ch, std::uint16_t from) {
  if (ch.value >= in_senders_.size()) {
    in_senders_.resize(ch.value + 1, kNoSender);
  }
  in_senders_[ch.value] = from;
}

std::uint16_t McsProcess::sender_of(net::ChannelId ch) const {
  // Flat lookup on the per-message path; registration happens at finalize().
  CIM_CHECK_MSG(ch.value < in_senders_.size() &&
                    in_senders_[ch.value] != kNoSender,
                "message on unregistered channel");
  return in_senders_[ch.value];
}

void McsProcess::send_to(std::uint16_t to, net::MessagePtr msg) {
  CIM_DCHECK(to < out_.size() && to != ctx_.local_index);
  fabric().send(out_[to], std::move(msg));
}

void McsProcess::handle_write(VarId var, Value value, WriteId wid,
                              WriteCallback cb) {
  if (upcall_in_flight_) {
    // Condition (a): the replica values involved in an in-flight upcall must
    // stay stable; local writes wait until the upcall dance completes.
    deferred_writes_.push_back(DeferredWrite{var, value, wid, std::move(cb)});
    return;
  }
  do_write(var, value, wid, std::move(cb));
}

void McsProcess::drain_deferred_writes() {
  while (!deferred_writes_.empty() && !upcall_in_flight_) {
    DeferredWrite w = std::move(deferred_writes_.front());
    deferred_writes_.pop_front();
    do_write(w.var, w.value, w.wid, std::move(w.cb));
  }
}

void McsProcess::apply_ready() {
  if (applying_) return;
  applying_ = true;
  apply_chain();
}

void McsProcess::apply_chain() {
  while (apply_next()) {
    if (upcall_in_flight_) {
      // The IS-process is down and holds the upcall; its reply resumes us.
      parked_ = true;
      return;
    }
    if (resume_ == ApplyResume::kPosted) {
      resume_chain();
      return;
    }
  }
  applying_ = false;
}

void McsProcess::resume_chain() {
  if (resume_ == ApplyResume::kInline) {
    apply_chain();
  } else {
    simulator().post([this]() { apply_chain(); });
  }
}

void McsProcess::apply_with_upcalls(VarId var, Value value, WriteId wid,
                                    bool own_write, DoneFn apply) {
  if (upcall_handler_ == nullptr || own_write) {
    // "The update of a replica due to a write operation issued by the
    // IS-process does not generate any upcall."
    apply();
    return;
  }

  CIM_CHECK_MSG(!upcall_in_flight_,
                "apply pipeline must serialize upcall dances");
  upcall_in_flight_ = true;

  auto apply_and_post = [this, var, value, wid,
                         apply = std::move(apply)]() mutable {
    apply();
    upcall_handler_->post_update(var, value, wid,
                                 [this]() { finish_upcall(); });
  };

  if (pre_update_enabled_) {
    upcall_handler_->pre_update(var, std::move(apply_and_post));
  } else {
    apply_and_post();
  }
}

void McsProcess::finish_upcall() {
  upcall_in_flight_ = false;
  drain_deferred_writes();
  if (parked_) {
    parked_ = false;
    resume_chain();
  }
}

}  // namespace cim::mcs
