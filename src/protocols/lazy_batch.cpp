#include "protocols/lazy_batch.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace cim::proto {

LazyBatchProcess::LazyBatchProcess(const mcs::McsContext& ctx,
                                   LazyBatchConfig config)
    : VcReplicaProcess(ctx, mcs::ApplyResume::kInline), config_(config),
      batch_clock_(ctx.num_procs) {}

void LazyBatchProcess::on_buffered() {
  if (batch_scheduled_) return;
  batch_scheduled_ = true;
  simulator().after(config_.batch_interval, [this]() {
    batch_scheduled_ = false;
    batch_due_ = true;
    apply_ready();
  });
}

void LazyBatchProcess::order_batch() {
  // Lemma 1's observational forcing: if the attached IS-process receives
  // pre-update upcalls, every intermediate state of the batch is observable
  // through its reads, so a *causal* MCS must keep the causal order.
  const bool forced_causal = has_upcall_handler() && pre_update_enabled();
  if (forced_causal || config_.order == BatchOrder::kCausal) return;

  // Group updates per variable, keeping within-variable causal order
  // (reordering same-variable updates would break convergence), then permute
  // the groups.
  std::vector<VarId> group_order;
  std::unordered_map<VarId, std::vector<TimestampedUpdate>> groups;
  for (TimestampedUpdate& u : batch_) {
    auto [it, inserted] = groups.try_emplace(u.var);
    if (inserted) group_order.push_back(u.var);
    it->second.push_back(std::move(u));
  }

  if (config_.order == BatchOrder::kReverseVars) {
    std::reverse(group_order.begin(), group_order.end());
  } else {  // kShuffleVars — Fisher-Yates with the per-process rng
    for (std::size_t i = group_order.size(); i > 1; --i) {
      std::swap(group_order[i - 1], group_order[rng().uniform(0, i - 1)]);
    }
  }

  std::vector<TimestampedUpdate> reordered;
  reordered.reserve(batch_.size());
  for (VarId var : group_order) {
    for (TimestampedUpdate& u : groups[var]) reordered.push_back(std::move(u));
  }
  batch_ = std::move(reordered);
}

bool LazyBatchProcess::next_batch() {
  // The previous batch has applied, and its tentative clock covers it; merge
  // (rather than assign) in case a local write ticked our own entry during
  // the upcall dances.
  clock_.merge(batch_clock_);
  if (!batch_due_) return false;
  batch_due_ = false;
  batch_clock_ = clock_;
  batch_.clear();
  batch_next_ = 0;
  // Extract the updates causally ready at the tentative clock until none
  // is: the maximal applicable set, listed in causal order.
  while (auto u = pending_.pop_ready(batch_clock_)) {
    batch_clock_.set(u->writer, u->clock[u->writer]);
    batch_.push_back(std::move(*u));
  }
  // Updates that stay pending are waiting for in-flight dependencies; the
  // arrival of those dependencies schedules the next batch.
  if (batch_.empty()) return false;

  // Remember the causal order, by WriteId, to detect deviation.
  std::vector<WriteId>& causal_wids = causal_scratch_;
  causal_wids.clear();
  causal_wids.reserve(batch_.size());
  for (const TimestampedUpdate& u : batch_) causal_wids.push_back(u.write_id);

  order_batch();

  bool deviated = false;
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    if (batch_[i].write_id != causal_wids[i]) deviated = true;
  }
  if (deviated) ++scrambled_batches_;
  return true;
}

bool LazyBatchProcess::apply_next() {
  if (batch_next_ == batch_.size() && !next_batch()) return false;
  // The chain resumes inline, so the whole batch applies within this event:
  // application processes cannot observe intermediate states (only the
  // attached IS-process can, through upcall reads).
  const TimestampedUpdate& u = batch_[batch_next_++];
  apply_with_upcalls(u.var, u.value, u.write_id, /*own_write=*/false,
                     [this, var = u.var, value = u.value, wid = u.write_id,
                      received_at = u.received_at]() {
                       set_replica(var, value, wid);
                       note_update_applied(var, value, wid, received_at);
                     });
  return true;
}

mcs::ProtocolFactory lazy_batch_protocol(LazyBatchConfig config) {
  return [config](const mcs::McsContext& ctx) {
    return std::make_unique<LazyBatchProcess>(ctx, config);
  };
}

}  // namespace cim::proto
