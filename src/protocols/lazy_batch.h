// Lazy-batch causal protocol: a propagation-based causal MCS-protocol that
// does NOT satisfy the Causal Updating Property (Property 1).
//
// Like ANBKH it replicates fully and stamps updates with vector clocks, but
// remote updates are buffered and applied in periodic *batches*: every
// batch_interval, the maximal causally-applicable set of buffered updates is
// applied atomically within one simulator event. Because application
// processes can never read an intermediate state of a batch, the protocol
// may apply the batch's updates to *different variables* in any order while
// remaining causal — updates to the same variable always keep their causal
// order, or convergence would break. The batch is the protocol's apply-chain
// buffer (apply_next) and the McsProcess chain resumes inline, so a batch
// spans more than one event only when its IS-process crashes mid-batch: the
// parked upcall holds the rest of the batch (and any batch timer that fires
// meanwhile) until the restart.
//
// This freedom is exactly what Section 3 of the paper warns about: with the
// order deliberately scrambled (kReverseVars / kShuffleVars), the replica of
// the IS-process's MCS-process is updated out of causal order, so IS-protocol
// 1 alone would propagate pairs out of causal order and the interconnected
// system would not be causal (experiment E6 demonstrates this). IS-protocol 2
// repairs it: its Pre_Propagate_out task issues a read *between* the batch's
// updates, making intermediate states observable — and a correct causal MCS
// must then fall back to causal application order (the observational forcing
// argument of Lemma 1). This class implements that forcing: when an upcall
// handler with pre-update upcalls enabled is attached, batches apply in
// causal order regardless of the configured scramble.
#pragma once

#include <vector>

#include "protocols/update_msg.h"
#include "sim/time.h"

namespace cim::proto {

enum class BatchOrder {
  kCausal,       // apply in causal order (like ANBKH, just delayed)
  kReverseVars,  // reverse the order of per-variable groups (deterministic)
  kShuffleVars,  // shuffle the per-variable groups (seeded)
};

struct LazyBatchConfig {
  sim::Duration batch_interval = sim::milliseconds(5);
  BatchOrder order = BatchOrder::kReverseVars;
};

class LazyBatchProcess final : public VcReplicaProcess {
 public:
  LazyBatchProcess(const mcs::McsContext& ctx, LazyBatchConfig config);

  bool satisfies_causal_updating() const override { return false; }
  const char* protocol_name() const override { return "lazy-batch"; }

  /// Number of batches whose application order actually deviated from
  /// causal order (diagnostic for experiment E6).
  std::uint64_t scrambled_batches() const { return scrambled_batches_; }

 protected:
  /// Arm the batch timer, unless it is armed.
  void on_buffered() override;
  bool apply_next() override;

 private:
  bool next_batch();
  void order_batch();

  LazyBatchConfig config_;
  // The batch being applied, from batch_next_ on, and the tentative clock
  // that covers the whole batch. A vector, not a deque: retained capacity
  // keeps steady-state batching off the allocator.
  std::vector<TimestampedUpdate> batch_;
  std::size_t batch_next_ = 0;
  VectorClock batch_clock_;
  std::vector<WriteId> causal_scratch_;
  bool batch_scheduled_ = false;  // a batch timer is armed
  bool batch_due_ = false;        // it fired; its batch has not started yet
  std::uint64_t scrambled_batches_ = 0;
};

/// Factory for mcs::SystemConfig::protocol.
mcs::ProtocolFactory lazy_batch_protocol(LazyBatchConfig config = {});

}  // namespace cim::proto
