// Partial-replication causal protocol, in the spirit of Raynal & Ahamad,
// "Exploiting write semantics in implementing partially replicated causal
// objects" (Euromicro PDP 1998) — citation [8] of the paper.
//
// Each MCS-process declares an *interest set* of variables it replicates.
// Writes carry the full value only to interested peers; uninterested peers
// receive a small *causal marker* (writer + vector clock, no payload) that
// advances their causal knowledge without shipping data. The vector-clock
// delivery discipline is exactly ANBKH's, so causality is preserved; the
// savings appear in bytes on the wire (bench_partial_replication) — the
// motivation of the cited work.
//
// Reads of a variable outside the local interest set are a configuration
// error and throw.
//
// Interconnection: the paper requires the IS-process's MCS-process to hold
// "a local replica of each of the variables of the shared memory", so the
// interest function MUST return true for every variable at IS-process slots
// (local indices >= the configured application-process count). The
// convenience factory below enforces this automatically.
#pragma once

#include <functional>

#include "common/causal_queue.h"
#include "common/vector_clock.h"
#include "mcs/mcs_process.h"

namespace cim::proto {

/// Does local process `index` replicate `var`?
using InterestFn = std::function<bool(std::uint16_t index, VarId var)>;

/// Update message whose payload may be elided for uninterested receivers.
struct PartialUpdate final : net::Message {
  VarId var;
  Value value = kInitValue;
  bool has_value = false;  // false: causal marker only
  VectorClock clock;
  std::uint16_t writer = 0;
  // Instrumentation only, not wire data: the originating write's id (set on
  // markers too — they stem from the same write), and the local receive time
  // at the buffering process, feeding the proto.causal_wait histogram.
  WriteId write_id;
  sim::Time received_at;

  const char* type_name() const override {
    return has_value ? "partial.update" : "partial.marker";
  }
  std::size_t wire_size() const override {
    // Marker: header + writer + clock. Full update adds var id + value.
    return (has_value ? 24 + 4 + 8 : 24) + 2 + 8 * clock.size();
  }
  WriteId wid() const override { return write_id; }
};

class PartialRepProcess final : public mcs::McsProcess {
 public:
  PartialRepProcess(const mcs::McsContext& ctx, InterestFn interest,
                    std::uint16_t app_process_count);

  StoredValue read(VarId var) const override;
  void on_message(net::ChannelId from, net::MessagePtr msg) override;

  bool satisfies_causal_updating() const override { return true; }
  const char* protocol_name() const override { return "partial-rep"; }

  bool holds(VarId var) const { return holds(local_index(), var); }
  const VectorClock& clock() const { return clock_; }

 protected:
  void do_write(VarId var, Value value, WriteId wid,
                mcs::WriteCallback cb) override;
  bool apply_next() override;

 private:
  bool holds(std::uint16_t index, VarId var) const {
    // IS-process slots (and any slot beyond the application processes)
    // replicate everything, as Section 2 of the paper requires.
    return index >= app_process_count_ || interest_(index, var);
  }

  InterestFn interest_;
  std::uint16_t app_process_count_;
  VectorClock clock_;
  CausalQueue<PartialUpdate> pending_;
};

/// Factory. `interest` governs application processes only; IS-process slots
/// always replicate every variable. `app_process_count` must equal the
/// system's num_app_processes.
mcs::ProtocolFactory partial_rep_protocol(InterestFn interest,
                                          std::uint16_t app_process_count);

/// Convenience: full replication (equivalent to ANBKH, for comparison runs).
mcs::ProtocolFactory partial_rep_protocol_full();

}  // namespace cim::proto
