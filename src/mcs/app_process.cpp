#include "mcs/app_process.h"

#include <utility>

#include "common/check.h"

namespace cim::mcs {

AppProcess::AppProcess(ProcId id, bool is_isp, McsProcess& mcs,
                       chk::Recorder& recorder, sim::Simulator& simulator,
                       MemoryObserver* observer, obs::Observability* obs)
    : id_(id), is_isp_(is_isp), mcs_(mcs), recorder_(recorder),
      sim_(simulator), observer_(observer) {
  if (obs != nullptr) {
    trace_ = &obs->trace();
    obs::MetricsRegistry& m = obs->metrics();
    m_reads_ = &m.counter("mcs.reads");
    m_writes_ = &m.counter("mcs.writes");
    m_isp_reads_ = &m.counter("mcs.isp_reads");
    h_op_latency_ = &m.histogram("mcs.op_latency");
  }
}

void AppProcess::read(VarId var, ReadCallback k) {
  Request req;
  req.kind = chk::OpKind::kRead;
  req.var = var;
  req.on_read = std::move(k);
  enqueue(std::move(req));
}

void AppProcess::write(VarId var, Value value, WriteCallback k) {
  write_with_wid(var, value, WriteId::make(id_, ++next_wseq_), std::move(k));
}

void AppProcess::write_with_wid(VarId var, Value value, WriteId wid,
                                WriteCallback k) {
  CIM_CHECK_MSG(wid.valid(), "writes must carry a write id");
  Request req;
  req.kind = chk::OpKind::kWrite;
  req.var = var;
  req.value = value;
  req.wid = wid;
  req.on_write = std::move(k);
  enqueue(std::move(req));
}

StoredValue AppProcess::read_now(VarId var) {
  if (m_isp_reads_ != nullptr) m_isp_reads_->inc();
  const OpId op = recorder_.begin(id_, is_isp_, chk::OpKind::kRead, var,
                                  kInitValue, sim_.now());
  const StoredValue got = mcs_.read(var);
  recorder_.end_read(op, got.value, sim_.now());
  ++completed_;
  return got;
}

void AppProcess::enqueue(Request req) {
  req.enqueued_at = sim_.now();
  queue_.push_back(std::move(req));
  pump();
}

void AppProcess::pump() {
  if (pumping_) return;
  pumping_ = true;
  while (!busy_ && !queue_.empty()) {
    Request req = std::move(queue_.front());
    queue_.pop_front();
    issue(std::move(req));
  }
  pumping_ = false;
}

void AppProcess::issue(Request req) {
  // Latency is measured from enqueue: a queued call is "blocked" in the
  // paper's sense, so queueing time is part of the operation.
  const sim::Time started = req.enqueued_at;
  if (req.kind == chk::OpKind::kRead) {
    if (m_reads_ != nullptr) m_reads_->inc();
    CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kMcs, "read_issue",
              {{"proc", id_}, {"var", req.var}});
    const OpId op = recorder_.begin(id_, is_isp_, chk::OpKind::kRead, req.var,
                                    kInitValue, sim_.now());
    const StoredValue got = mcs_.read(req.var);
    recorder_.end_read(op, got.value, sim_.now());
    ++completed_;
    if (h_op_latency_ != nullptr) h_op_latency_->observe(sim_.now() - started);
    CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kMcs, "read_done",
              {{"proc", id_},
               {"var", req.var},
               {"val", got.value},
               {"lat_ns", sim_.now() - started}});
    if (observer_ != nullptr) {
      observer_->on_read_done(id_, req.var, got.value, got.wid, sim_.now());
    }
    if (req.on_read) req.on_read(got.value);
  } else {
    // A write stays outstanding until the protocol acknowledges it; a read
    // completes above, within its issue.
    busy_ = true;
    if (m_writes_ != nullptr) m_writes_->inc();
    CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kMcs, "write_issue",
              {{"proc", id_},
               {"var", req.var},
               {"val", req.value},
               {"wid", req.wid}});
    const OpId op = recorder_.begin(id_, is_isp_, chk::OpKind::kWrite, req.var,
                                    req.value, sim_.now());
    mcs_.handle_write(req.var, req.value, req.wid,
                      [this, op, started, var = req.var, value = req.value,
                       wid = req.wid, k = std::move(req.on_write)]() {
                        recorder_.end_write(op, sim_.now());
                        ++completed_;
                        busy_ = false;
                        if (h_op_latency_ != nullptr) {
                          h_op_latency_->observe(sim_.now() - started);
                        }
                        CIM_TRACE(trace_, sim_.now(), obs::TraceCategory::kMcs,
                                  "write_done",
                                  {{"proc", id_},
                                   {"var", var},
                                   {"val", value},
                                   {"wid", wid},
                                   {"lat_ns", sim_.now() - started}});
                        if (k) k();
                        pump();
                      });
  }
}

}  // namespace cim::mcs
