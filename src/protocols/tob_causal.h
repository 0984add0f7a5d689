// "tob-causal": a causal protocol that disseminates through total-order
// broadcast instead of vector clocks.
//
// A fourth propagation-based MCS-protocol, beyond the paper's cited ones,
// illustrating that the IS-protocols are protocol-agnostic:
//
//  * write(x, v): apply locally, acknowledge immediately, publish through
//    the system sequencer;
//  * read(x): local replica;
//  * remote updates apply in global sequence order; the origin skips its own
//    deliveries (it already applied them at issue). The sequencer, the
//    seq-ordered buffer and its apply step are the TOB core shared with
//    aw-seq (protocols/tob_sequencer.h).
//
// The global sequence extends the causal order (FIFO channels, single
// sequencer), so applying remote updates in sequence order is one valid
// causal application order — the protocol is ANBKH's application discipline
// with a stronger delivery order and O(1)-size messages instead of vector
// clocks (at the cost of funnelling writes through a sequencer: n messages
// per write instead of n-1).
//
// Design note: an earlier variant additionally arbitrated concurrent writes
// per variable ("pending own write wins over older-sequenced remote
// writes"), aiming for convergence. The repository's own checker refuted it:
// selectively skipping a remote write whose causal successors are later
// exposed creates histories with no causal view (CyclicHB /
// WriteHBInitRead). The lesson is recorded in tests and DESIGN.md; causal
// memory without blocking reads cannot converge concurrent same-variable
// writes, so this protocol, like ANBKH, does not try.
//
// At an MCS-process hosting an IS-process the immediate local application of
// own writes is disabled (everything applies in pure sequence order): the
// IS-process only reads inside upcalls, the pure order keeps condition (c)
// intact, and writes still acknowledge immediately so the upcall discipline
// cannot deadlock. Applications at that replica follow the total order,
// which extends the causal order, so the protocol satisfies the Causal
// Updating Property and interconnects with IS-protocol 1.
#pragma once

#include "protocols/tob_sequencer.h"

namespace cim::proto {

class TobCausalProcess final : public TobSequencerProcess {
 public:
  explicit TobCausalProcess(const mcs::McsContext& ctx)
      : TobSequencerProcess(ctx) {}

  const char* protocol_name() const override { return "tob-causal"; }

  /// Own deliveries skipped because the write was applied at issue time.
  std::uint64_t own_deliveries_skipped() const { return own_skipped_; }

 protected:
  void do_write(VarId var, Value value, WriteId wid,
                mcs::WriteCallback cb) override;
  void deliver_own(const TobDeliver& del) override;

 private:
  std::uint64_t own_skipped_ = 0;
};

/// Factory for mcs::SystemConfig::protocol.
mcs::ProtocolFactory tob_causal_protocol();

}  // namespace cim::proto
