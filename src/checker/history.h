// Execution histories: the computations α^q of the paper.
//
// A History is a set of completed read/write operations grouped by issuing
// process in program order. The Recorder is the hook the MCS layer uses to
// record every application-process operation (invocation and response).
//
// Storage is *columnar* (see column.h): each field lives in its own
// compressed, append-only column, and per-process index *spans* make the
// issuing process, the program-order position and the operation id implicit
// in the global index. A multi-million-op history costs ~14 bytes per
// operation (bytes_per_op() reports the measured figure) against the ~64
// bytes of the previous per-`Op`-struct layout (56-byte struct plus an
// 8-byte per-process index entry, History::struct_bytes_per_op()).
//
// `Op` survives as a materialized *view*: History::op(i) decodes one row for
// call sites that want a plain struct; the checkers read columns directly.
//
// Terminology follows Section 2 of the paper:
//  * a *system history* α^k contains the operations of all processes of S^k,
//    including its IS-processes (whose writes are the propagated writes
//    w^k_{isp^k}(x)v);
//  * the *federation history* α^T contains the operations of all application
//    processes of all systems, with IS-processes removed (the paper's ST
//    excludes isp^0 and isp^1).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "checker/column.h"
#include "common/ids.h"
#include "common/value.h"
#include "sim/time.h"

namespace cim::chk {

enum class OpKind : std::uint8_t { kRead, kWrite };

inline const char* to_string(OpKind k) {
  return k == OpKind::kRead ? "read" : "write";
}

/// Materialized view of one operation (History::op(i) / Recorder listener).
struct Op {
  OpId id;
  ProcId proc;
  bool is_isp = false;        // operation issued by an IS-process
  OpKind kind = OpKind::kRead;
  VarId var;
  Value value = kInitValue;   // value written, or value returned by the read
  std::uint64_t proc_seq = 0; // position in the issuing process's program order
  sim::Time invoked;
  sim::Time responded;

  std::string to_string() const;
};

class HistoryBuilder;

/// An immutable columnar collection of operations with per-process program
/// order. Global indices are sorted by (process, program order); the span
/// table maps each process to its contiguous index range.
class History {
 public:
  /// Half-open global index range of one process's operations.
  struct Span {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t size() const { return end - begin; }
    bool empty() const { return begin == end; }
  };

  History() = default;
  /// Compatibility constructor: stable-sorts by (proc, proc_seq) and
  /// re-encodes into columns. Tests and trace mergers build Op vectors;
  /// streaming producers use HistoryBuilder instead.
  explicit History(std::vector<Op> ops);

  std::size_t size() const { return kind_.size(); }
  bool empty() const { return size() == 0; }

  // ---- columnar row accessors --------------------------------------------
  OpKind kind(std::size_t i) const {
    return kind_[i] ? OpKind::kWrite : OpKind::kRead;
  }
  bool is_write(std::size_t i) const { return kind_[i]; }
  bool is_isp(std::size_t i) const { return isp_[i]; }
  VarId var(std::size_t i) const { return var_.var(i); }
  /// Dense dictionary id in [0, num_vars()).
  std::uint32_t var_dense(std::size_t i) const { return var_.dense(i); }
  std::size_t num_vars() const { return var_.num_vars(); }
  VarId var_of_dense(std::uint32_t d) const { return var_.var_of_dense(d); }
  Value value(std::size_t i) const { return value_[i]; }
  sim::Time invoked(std::size_t i) const { return sim::Time{invoked_[i]}; }
  sim::Time responded(std::size_t i) const {
    return sim::Time{invoked_[i] + duration_[i]};
  }
  /// Dense process index in [0, num_processes()) of op i (O(log P)).
  std::size_t proc_dense(std::size_t i) const;
  ProcId proc(std::size_t i) const { return processes_[proc_dense(i)]; }
  std::uint64_t proc_seq(std::size_t i) const {
    return i - span_begin_[proc_dense(i)];
  }

  /// Materialize one row (op id = global index).
  Op op(std::size_t i) const;

  // ---- process table ------------------------------------------------------
  /// Distinct processes appearing in the history, in ascending ProcId order.
  const std::vector<ProcId>& processes() const { return processes_; }
  std::size_t num_processes() const { return processes_.size(); }
  ProcId process(std::size_t pidx) const { return processes_[pidx]; }
  Span process_span(std::size_t pidx) const {
    return Span{span_begin_[pidx], span_begin_[pidx + 1]};
  }
  /// Span of the given process id; empty span when absent.
  Span span_of(ProcId p) const;

  /// Measured live bytes per operation of the columnar store (columns plus
  /// the process/dictionary tables).
  double bytes_per_op() const;
  std::size_t bytes_total() const;
  /// The pre-columnar footprint this layout replaced: the Op struct plus one
  /// per-process index entry per op. The checker-perf bench reports both.
  static constexpr std::size_t struct_bytes_per_op() {
    return sizeof(Op) + sizeof(std::size_t);
  }

  /// Keep only operations satisfying `pred` (e.g., drop IS-process ops).
  template <typename Pred>
  History filter(Pred pred) const;

  std::string to_string() const;

 private:
  friend class HistoryBuilder;

  col::BitColumn kind_;            // 1 = write
  col::BitColumn isp_;
  col::VarColumn var_;
  col::I64Column value_;
  col::DeltaI64Column invoked_;
  col::I64Column duration_;        // responded - invoked
  std::vector<ProcId> processes_;  // ascending
  std::vector<std::size_t> span_begin_;  // size processes_.size() + 1
};

/// Response times of the operations of one kind in a history (experiment
/// E4: "our IS-protocols should not affect the response time a process
/// observes when issuing a memory operation").
struct ResponseStats {
  std::uint64_t count = 0;
  double mean_ns = 0.0;
  std::int64_t max_ns = 0;
};

/// IS-process operations are excluded: they are protocol machinery, not
/// application ops.
ResponseStats response_stats(const History& history, OpKind kind);

/// Streaming History construction: append completed operations in per-process
/// program order (interleaving across processes is fine), then build(). Ops
/// are encoded into per-process column chunks as they arrive — memory stays
/// proportional to the *encoded* size, never to sizeof(Op) * n.
class HistoryBuilder {
 public:
  void add(ProcId proc, bool is_isp, OpKind kind, VarId var, Value value,
           sim::Time invoked, sim::Time responded);
  void add(const Op& op) {
    add(op.proc, op.is_isp, op.kind, op.var, op.value, op.invoked,
        op.responded);
  }

  std::size_t size() const { return n_; }

  /// Finalize. The builder is left empty.
  History build();

 private:
  struct Chunk {
    col::BitColumn kind;
    col::BitColumn isp;
    std::vector<std::uint32_t> var_dense;
    col::I64Column value;
    col::DeltaI64Column invoked;
    col::I64Column duration;
    std::size_t n = 0;
  };
  col::VarDict dict_;                    // shared across chunks
  std::map<ProcId, Chunk> chunks_;       // ascending process order
  std::size_t n_ = 0;
};

template <typename Pred>
History History::filter(Pred pred) const {
  HistoryBuilder out;
  for (std::size_t p = 0; p < num_processes(); ++p) {
    const Span s = process_span(p);
    for (std::size_t i = s.begin; i < s.end; ++i) {
      Op o = op(i);
      if (pred(o)) out.add(o);
    }
  }
  return out.build();
}

/// Records operations as executions run. Thread-compatible: the simulator
/// that drives it is single-threaded.
/// The log is columnar too (parallel arrays indexed by OpId): ~37 bytes per
/// in-flight op against the previous 64-byte Pending struct.
class Recorder {
 public:
  /// Record the invocation of an operation. For writes, `value` is the value
  /// being written; for reads it is ignored until end_read.
  OpId begin(ProcId proc, bool is_isp, OpKind kind, VarId var, Value value,
             sim::Time now);

  /// Streaming hook for crash-durable history dumps (mesh::MeshNode): fired
  /// for writes at begin() — a write's value is final at invocation, and it
  /// must reach stable storage before the pair can leave the engine thread —
  /// and for reads at end_read(), when the result exists. Runs on whatever
  /// thread records the operation; per-process order equals program order.
  using Listener = std::function<void(const Op&)>;
  void set_listener(Listener listener) { listener_ = std::move(listener); }

  void end_read(OpId id, Value result, sim::Time now);
  void end_write(OpId id, sim::Time now);

  /// Number of operations recorded so far (completed or not).
  std::size_t count() const { return flags_.size(); }

  /// Pre-size the operation log. Long steady-state runs call this once up
  /// front so recording never reallocates inside the event loop (the
  /// allocation-free invariant of docs/ARCHITECTURE.md).
  void reserve(std::size_t n);

  /// All *completed* operations. Pending (never-responded) operations are
  /// excluded: the paper's computations contain only completed operations.
  History full() const;

  /// Operations of the processes of one system (IS-processes included):
  /// the computation α^k.
  History system(SystemId sys) const;

  /// Operations of all application processes, IS-processes excluded:
  /// the computation α^T.
  History federation() const;

 private:
  static constexpr std::uint8_t kFlagWrite = 1;
  static constexpr std::uint8_t kFlagIsp = 2;
  static constexpr std::uint8_t kFlagCompleted = 4;

  Op materialize(std::size_t i) const;
  template <typename Pred>
  History snapshot(Pred pred) const;

  std::vector<ProcId> proc_;
  std::vector<std::uint8_t> flags_;
  std::vector<VarId> var_;
  std::vector<Value> value_;
  std::vector<std::uint32_t> proc_seq_;
  std::vector<sim::Time> invoked_;
  std::vector<sim::Time> responded_;
  std::map<ProcId, std::uint64_t> next_seq_;
  Listener listener_;
};

}  // namespace cim::chk
