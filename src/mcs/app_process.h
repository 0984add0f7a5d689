// Application processes.
//
// An AppProcess is the paper's application process: it issues read and write
// calls to its attached MCS-process and "blocks" until the response. In the
// event-driven runtime the blocking discipline is a FIFO of at most one
// outstanding operation: additional requests queue and issue in order, which
// preserves the sequential-process semantics. A read completes within its
// issue (the MCS-process serves it synchronously); a write completes when the
// protocol acknowledges it. Every operation is recorded in
// the Recorder (invocation and response), forming the computations the
// checker verifies.
//
// IS-processes use read_now() for the reads issued inside upcall handlers:
// those reads must be served immediately even if the process has a pending
// queued operation (condition (b) of Section 2 — this is what prevents
// deadlock between the upcall dance and Propagate_in writes).
#pragma once

#include "checker/history.h"
#include "common/vec_queue.h"
#include "mcs/mcs_process.h"
#include "mcs/types.h"

namespace cim::mcs {

class AppProcess {
 public:
  AppProcess(ProcId id, bool is_isp, McsProcess& mcs, chk::Recorder& recorder,
             sim::Simulator& simulator, MemoryObserver* observer = nullptr,
             obs::Observability* obs = nullptr);
  AppProcess(const AppProcess&) = delete;
  AppProcess& operator=(const AppProcess&) = delete;

  ProcId id() const { return id_; }
  bool is_isp() const { return is_isp_; }
  McsProcess& mcs() { return mcs_; }

  /// Issue a read; `k` (optional) receives the value when the operation
  /// completes. Queued behind any outstanding operation.
  void read(VarId var, ReadCallback k = {});

  /// Issue a write; `k` (optional) runs when the operation completes. A
  /// fresh WriteId is minted from this process id and its write counter.
  void write(VarId var, Value value, WriteCallback k = {});

  /// Issue a write carrying an existing WriteId. Used by IS-processes when
  /// re-issuing a propagated write (Propagate_in), so the origin's wid
  /// follows the write into this system's trace events. `wid` must be valid.
  void write_with_wid(VarId var, Value value, WriteId wid,
                      WriteCallback k = {});

  /// Read immediately, bypassing the operation queue, and return the
  /// replica's value and the write that stored it. Used by IS-processes
  /// inside upcall handlers, where the MCS guarantees immediate service
  /// (conditions (b) and (c)).
  StoredValue read_now(VarId var);

  /// True when no operation is outstanding or queued.
  bool idle() const { return !busy_ && queue_.empty(); }

  /// Number of operations completed by this process.
  std::uint64_t ops_completed() const { return completed_; }

 private:
  struct Request {
    chk::OpKind kind = chk::OpKind::kRead;
    VarId var;
    Value value = kInitValue;  // writes only
    WriteId wid;               // writes only
    ReadCallback on_read;
    WriteCallback on_write;
    sim::Time enqueued_at;
  };

  void enqueue(Request req);
  void issue(Request req);
  void pump();

  ProcId id_;
  bool is_isp_;
  McsProcess& mcs_;
  chk::Recorder& recorder_;
  sim::Simulator& sim_;
  MemoryObserver* observer_;  // may be null

  bool busy_ = false;
  bool pumping_ = false;
  VecQueue<Request> queue_;
  std::uint64_t completed_ = 0;
  std::uint32_t next_wseq_ = 0;  // per-process write counter (wid seq part)

  // Cached instrument cells (null without observability).
  obs::TraceSink* trace_ = nullptr;
  obs::Counter* m_reads_ = nullptr;
  obs::Counter* m_writes_ = nullptr;
  obs::Counter* m_isp_reads_ = nullptr;
  obs::DurationHistogram* h_op_latency_ = nullptr;
};

}  // namespace cim::mcs
