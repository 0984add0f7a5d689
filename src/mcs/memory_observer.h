// Observation hooks for experiments and the online monitor.
//
// Protocols report every write issue and every replica application once,
// through McsProcess's note_update_* helpers, and application processes
// report every completed read together with the write it returned (the
// replica keeps each value's WriteId, so no observer has to guess a write
// from its value). Observers see them here without touching protocol
// internals:
//
//  * the typed write-lifecycle hooks carry the write's WriteId and fire
//    exactly where the `proto`/`update_issued`, `proto`/`update_applied`
//    and `mcs`/`read_done` trace events are recorded (after the record, so
//    anything an observer traces follows the event that triggered it). They
//    feed chk::OnlineMonitor and, through mcs::SpanFeed, obs::SpanIndex's
//    visibility queries (the paper's `l` and the 3l+2d bound of Section 6);
//    they fire whether or not tracing is enabled.
//  * the value-keyed pair (on_write_issued / on_apply) is kept only for the
//    repository benchmark's visibility fold (perfbench/src/sim_tree8.cpp),
//    its last consumer; the next change to that benchmark moves the fold
//    onto the typed hooks and deletes the pair. on_apply additionally fires
//    for a writer's local apply of its own write, which the apply pipeline
//    never sees.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "sim/time.h"

namespace cim::mcs {

class MemoryObserver {
 public:
  virtual ~MemoryObserver() = default;

  // ---- typed write-lifecycle hooks ----------------------------------------
  /// MCS-process `writer` issued write `wid`, w(var)value, into its system
  /// (an IS-process re-issuing a propagated write carries the origin's wid).
  virtual void on_update_issued(ProcId writer, VarId var, Value value,
                                WriteId wid, sim::Time t) {
    (void)writer; (void)var; (void)value; (void)wid; (void)t;
  }

  /// The apply pipeline of MCS-process `replica` applied write `wid`.
  /// A writer's local pre-apply of its own write does not fire this.
  virtual void on_update_applied(ProcId replica, VarId var, Value value,
                                 WriteId wid, sim::Time t) {
    (void)replica; (void)var; (void)value; (void)wid; (void)t;
  }

  /// A read of `var` by application process `reader` returned `value`, as
  /// stored by write `wid` (an invalid wid: the initial value).
  virtual void on_read_done(ProcId reader, VarId var, Value value,
                            WriteId wid, sim::Time t) {
    (void)reader; (void)var; (void)value; (void)wid; (void)t;
  }

  // ---- value-keyed hooks ----------------------------------------------------
  /// A write operation w(var)value was issued by `writer` at time `t`.
  virtual void on_write_issued(ProcId writer, VarId var, Value value,
                               sim::Time t) {
    (void)writer; (void)var; (void)value; (void)t;
  }

  /// The replica of `var` at MCS-process `replica` was updated with `value`.
  virtual void on_apply(ProcId replica, VarId var, Value value, sim::Time t) {
    (void)replica; (void)var; (void)value; (void)t;
  }
};

/// Fan-out observer: lets a federation register several trackers after
/// construction while systems hold one stable observer pointer.
class ObserverMux final : public MemoryObserver {
 public:
  void add(MemoryObserver* observer) { observers_.push_back(observer); }

  void on_update_issued(ProcId writer, VarId var, Value value, WriteId wid,
                        sim::Time t) override {
    for (MemoryObserver* o : observers_)
      o->on_update_issued(writer, var, value, wid, t);
  }
  void on_update_applied(ProcId replica, VarId var, Value value, WriteId wid,
                         sim::Time t) override {
    for (MemoryObserver* o : observers_)
      o->on_update_applied(replica, var, value, wid, t);
  }
  void on_read_done(ProcId reader, VarId var, Value value, WriteId wid,
                    sim::Time t) override {
    for (MemoryObserver* o : observers_)
      o->on_read_done(reader, var, value, wid, t);
  }
  void on_write_issued(ProcId writer, VarId var, Value value,
                       sim::Time t) override {
    for (MemoryObserver* o : observers_) o->on_write_issued(writer, var, value, t);
  }
  void on_apply(ProcId replica, VarId var, Value value, sim::Time t) override {
    for (MemoryObserver* o : observers_) o->on_apply(replica, var, value, t);
  }

 private:
  std::vector<MemoryObserver*> observers_;
};

}  // namespace cim::mcs
