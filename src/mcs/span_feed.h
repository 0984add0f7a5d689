// Live feed of an obs::SpanIndex from the typed write-lifecycle hooks: the
// in-process way to fold a simulator run's writes by WriteId and ask the
// index the Section-6 visibility questions. obs sits below mcs in the build
// (cim_mcs links cim_obs), so the index cannot derive from MemoryObserver
// itself.
#pragma once

#include "mcs/memory_observer.h"
#include "obs/span_index.h"

namespace cim::mcs {

class SpanFeed final : public MemoryObserver {
 public:
  explicit SpanFeed(obs::SpanIndex& index) : index_(index) {}

  void on_update_issued(ProcId writer, VarId var, Value value, WriteId wid,
                        sim::Time t) override {
    index_.on_write_issue(t.ns, writer, wid, var, value);
  }
  void on_update_applied(ProcId replica, VarId, Value, WriteId wid,
                         sim::Time t) override {
    index_.on_update_applied(t.ns, replica, wid, -1);
  }

 private:
  obs::SpanIndex& index_;
};

}  // namespace cim::mcs
