#include "checker/history.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace cim::chk {

std::string Op::to_string() const {
  std::ostringstream os;
  os << (kind == OpKind::kRead ? "r" : "w") << "(" << var << ")" << value
     << "@" << cim::to_string(proc) << (is_isp ? "[isp]" : "") << "#"
     << proc_seq;
  return os.str();
}

History::History(std::vector<Op> ops) {
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    if (a.proc != b.proc) return a.proc < b.proc;
    return a.proc_seq < b.proc_seq;
  });
  HistoryBuilder b;
  for (const Op& op : ops) b.add(op);
  *this = b.build();
}

std::size_t History::proc_dense(std::size_t i) const {
  // Largest pidx with span_begin_[pidx] <= i.
  const auto it = std::upper_bound(span_begin_.begin(), span_begin_.end(), i);
  return static_cast<std::size_t>(it - span_begin_.begin()) - 1;
}

Op History::op(std::size_t i) const {
  const std::size_t p = proc_dense(i);
  Op o;
  o.id = OpId{static_cast<std::uint64_t>(i)};
  o.proc = processes_[p];
  o.is_isp = isp_[i];
  o.kind = kind(i);
  o.var = var_.var(i);
  o.value = value_[i];
  o.proc_seq = i - span_begin_[p];
  o.invoked = sim::Time{invoked_[i]};
  o.responded = sim::Time{invoked_[i] + duration_[i]};
  return o;
}

History::Span History::span_of(ProcId p) const {
  const auto it = std::lower_bound(processes_.begin(), processes_.end(), p);
  if (it == processes_.end() || *it != p) return Span{};
  const std::size_t pidx = static_cast<std::size_t>(it - processes_.begin());
  return process_span(pidx);
}

std::size_t History::bytes_total() const {
  return kind_.bytes() + isp_.bytes() + var_.bytes() + value_.bytes() +
         invoked_.bytes() + duration_.bytes() +
         processes_.size() * sizeof(ProcId) +
         span_begin_.size() * sizeof(std::size_t);
}

double History::bytes_per_op() const {
  if (empty()) return 0.0;
  return static_cast<double>(bytes_total()) / static_cast<double>(size());
}

std::string History::to_string() const {
  std::ostringstream os;
  for (std::size_t p = 0; p < num_processes(); ++p) {
    os << cim::to_string(processes_[p]) << ":";
    const Span s = process_span(p);
    for (std::size_t i = s.begin; i < s.end; ++i) {
      os << " " << op(i).to_string();
    }
    os << "\n";
  }
  return os.str();
}

void HistoryBuilder::add(ProcId proc, bool is_isp, OpKind kind, VarId var,
                         Value value, sim::Time invoked, sim::Time responded) {
  Chunk& c = chunks_[proc];
  c.kind.push_back(kind == OpKind::kWrite);
  c.isp.push_back(is_isp);
  c.var_dense.push_back(dict_.intern(var));
  c.value.push_back(value);
  c.invoked.push_back(invoked.ns);
  c.duration.push_back(responded.ns - invoked.ns);
  ++c.n;
  ++n_;
}

History HistoryBuilder::build() {
  History h;
  CIM_CHECK_MSG(n_ < col::kSlotOverflow, "history exceeds 2^32-1 operations");
  h.kind_.reserve(n_);
  h.isp_.reserve(n_);
  h.var_.reserve(n_);
  h.value_.reserve(n_);
  h.invoked_.reserve(n_);
  h.duration_.reserve(n_);
  h.processes_.reserve(chunks_.size());
  h.span_begin_.reserve(chunks_.size() + 1);
  // The final column adopts the shared dictionary; chunk streams re-encode
  // through cursors (O(1) amortized per op, no Op materialization).
  h.var_.dict() = std::move(dict_);
  std::size_t at = 0;
  for (auto& [proc, c] : chunks_) {
    h.processes_.push_back(proc);
    h.span_begin_.push_back(at);
    col::I64Column::Cursor value(c.value);
    col::DeltaI64Column::Cursor invoked(c.invoked);
    col::I64Column::Cursor duration(c.duration);
    for (std::size_t i = 0; i < c.n; ++i) {
      h.kind_.push_back(c.kind[i]);
      h.isp_.push_back(c.isp[i]);
      h.var_.push_dense(c.var_dense[i]);
      h.value_.push_back(value.next());
      h.invoked_.push_back(invoked.next());
      h.duration_.push_back(duration.next());
    }
    at += c.n;
  }
  h.span_begin_.push_back(at);
  chunks_.clear();
  dict_ = col::VarDict{};
  n_ = 0;
  return h;
}

OpId Recorder::begin(ProcId proc, bool is_isp, OpKind kind, VarId var,
                     Value value, sim::Time now) {
  const OpId id{static_cast<std::uint64_t>(flags_.size())};
  const std::uint64_t seq = next_seq_[proc]++;
  CIM_CHECK_MSG(seq <= 0xFFFFFFFFu, "per-process program order exceeds 2^32");
  proc_.push_back(proc);
  flags_.push_back(static_cast<std::uint8_t>(
      (kind == OpKind::kWrite ? kFlagWrite : 0) | (is_isp ? kFlagIsp : 0)));
  var_.push_back(var);
  value_.push_back(value);
  proc_seq_.push_back(static_cast<std::uint32_t>(seq));
  invoked_.push_back(now);
  responded_.push_back(sim::Time{});
  if (listener_ && kind == OpKind::kWrite) listener_(materialize(id.value));
  return id;
}

void Recorder::end_read(OpId id, Value result, sim::Time now) {
  CIM_CHECK(id.value < flags_.size());
  const std::size_t i = id.value;
  CIM_CHECK_MSG((flags_[i] & kFlagWrite) == 0, "end_read on a write op");
  CIM_CHECK_MSG((flags_[i] & kFlagCompleted) == 0, "operation completed twice");
  value_[i] = result;
  responded_[i] = now;
  flags_[i] |= kFlagCompleted;
  if (listener_) listener_(materialize(i));
}

void Recorder::end_write(OpId id, sim::Time now) {
  CIM_CHECK(id.value < flags_.size());
  const std::size_t i = id.value;
  CIM_CHECK_MSG((flags_[i] & kFlagWrite) != 0, "end_write on a read op");
  CIM_CHECK_MSG((flags_[i] & kFlagCompleted) == 0, "operation completed twice");
  responded_[i] = now;
  flags_[i] |= kFlagCompleted;
}

void Recorder::reserve(std::size_t n) {
  proc_.reserve(n);
  flags_.reserve(n);
  var_.reserve(n);
  value_.reserve(n);
  proc_seq_.reserve(n);
  invoked_.reserve(n);
  responded_.reserve(n);
}

Op Recorder::materialize(std::size_t i) const {
  Op op;
  op.id = OpId{static_cast<std::uint64_t>(i)};
  op.proc = proc_[i];
  op.is_isp = (flags_[i] & kFlagIsp) != 0;
  op.kind = (flags_[i] & kFlagWrite) ? OpKind::kWrite : OpKind::kRead;
  op.var = var_[i];
  op.value = value_[i];
  op.proc_seq = proc_seq_[i];
  op.invoked = invoked_[i];
  op.responded = responded_[i];
  return op;
}

template <typename Pred>
History Recorder::snapshot(Pred pred) const {
  // The log is in global begin() order, so a forward scan visits each
  // process's operations in program order — exactly what HistoryBuilder
  // wants. But History orders by (proc, proc_seq), and an op whose *begin*
  // precedes another's may respond later; proc_seq was assigned at begin(),
  // so per-process scan order is still program order.
  HistoryBuilder b;
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    if ((flags_[i] & kFlagCompleted) == 0) continue;
    if (!pred(i)) continue;
    b.add(proc_[i], (flags_[i] & kFlagIsp) != 0,
          (flags_[i] & kFlagWrite) ? OpKind::kWrite : OpKind::kRead, var_[i],
          value_[i], invoked_[i], responded_[i]);
  }
  return b.build();
}

History Recorder::full() const {
  return snapshot([](std::size_t) { return true; });
}

History Recorder::system(SystemId sys) const {
  return snapshot([&](std::size_t i) { return proc_[i].system == sys; });
}

History Recorder::federation() const {
  return snapshot([&](std::size_t i) { return (flags_[i] & kFlagIsp) == 0; });
}

ResponseStats response_stats(const History& history, OpKind kind) {
  ResponseStats out;
  double total = 0.0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (history.kind(i) != kind || history.is_isp(i)) continue;
    const std::int64_t ns = (history.responded(i) - history.invoked(i)).ns;
    ++out.count;
    total += static_cast<double>(ns);
    out.max_ns = std::max(out.max_ns, ns);
  }
  if (out.count > 0) out.mean_ns = total / static_cast<double>(out.count);
  return out;
}

}  // namespace cim::chk
