#include "protocols/lazy_batch.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

LazyBatchProcess::LazyBatchProcess(const mcs::McsContext& ctx,
                                   LazyBatchConfig config)
    : McsProcess(ctx), config_(config), clock_(ctx.num_procs) {}

void LazyBatchProcess::do_write(VarId var, Value value, WriteId wid,
                                mcs::WriteCallback cb) {
  // Local writes apply immediately (read-your-writes) and propagate.
  clock_.tick(local_index());
  set_replica(var, value, wid);
  note_update_issued(var, value, wid, /*applied_locally=*/true);
  for (std::uint16_t j = 0; j < num_procs(); ++j) {
    if (j == local_index()) continue;
    auto msg = std::make_unique<TimestampedUpdate>();
    msg->var = var;
    msg->value = value;
    msg->clock = clock_;
    msg->writer = local_index();
    msg->write_id = wid;
    send_to(j, std::move(msg));
  }
  cb();
}

void LazyBatchProcess::on_message(net::ChannelId from, net::MessagePtr msg) {
  CIM_DCHECK_MSG(dynamic_cast<TimestampedUpdate*>(msg.get()) != nullptr,
                 "unexpected message type in lazy-batch");
  auto* update = static_cast<TimestampedUpdate*>(msg.get());
  CIM_DCHECK(update->writer == sender_of(from));
  update->received_at = simulator().now();
  pending_.push_back(std::move(*update));
  note_update_buffered(pending_.size());
  schedule_batch();
}

void LazyBatchProcess::schedule_batch() {
  if (batch_scheduled_) return;
  batch_scheduled_ = true;
  simulator().after(config_.batch_interval, [this]() {
    batch_scheduled_ = false;
    run_batch();
  });
}

void LazyBatchProcess::collect_ready(VectorClock& tentative,
                                     std::vector<TimestampedUpdate>& batch) {
  // Repeatedly extract updates that are causally ready with respect to the
  // tentative clock; the result is the maximal applicable set, listed in
  // causal order.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (!it->clock.ready_at(tentative, it->writer)) continue;
      tentative.set(it->writer, it->clock[it->writer]);
      batch.push_back(std::move(*it));
      pending_.erase(it);
      progress = true;
      break;
    }
  }
}

void LazyBatchProcess::order_batch(std::vector<TimestampedUpdate>& batch) {
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
  for (TimestampedUpdate& u : batch) {
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
  reordered.reserve(batch.size());
  for (VarId var : group_order) {
    for (TimestampedUpdate& u : groups[var]) reordered.push_back(std::move(u));
  }
  batch = std::move(reordered);
}

void LazyBatchProcess::run_batch() {
  VectorClock tentative = clock_;
  std::vector<TimestampedUpdate>& batch = batch_scratch_;
  batch.clear();
  collect_ready(tentative, batch);
  if (batch.empty()) return;

  // Remember the causal order, by WriteId, to detect deviation.
  std::vector<WriteId>& causal_wids = causal_scratch_;
  causal_wids.clear();
  causal_wids.reserve(batch.size());
  for (const TimestampedUpdate& u : batch) causal_wids.push_back(u.write_id);

  order_batch(batch);

  bool deviated = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].write_id != causal_wids[i]) deviated = true;
  }
  if (deviated) ++scrambled_batches_;

  // Apply the whole batch within this event: application processes cannot
  // observe intermediate states (only the attached IS-process can, through
  // upcall reads). Each apply runs through the upcall discipline; in this
  // implementation the IS-protocol handlers respond synchronously, so the
  // loop below completes within the current event.
  for (TimestampedUpdate& u : batch) {
    bool completed = false;
    apply_with_upcalls(
        u.var, u.value, u.write_id, /*own_write=*/false,
        /*apply=*/[this, &u]() {
          set_replica(u.var, u.value, u.write_id);
          note_update_applied(u.var, u.value, u.write_id, u.received_at);
        },
        /*done=*/[&completed]() { completed = true; });
    CIM_CHECK_MSG(completed, "lazy-batch requires synchronous upcall handlers");
  }

  // The tentative clock covers the batch; merge (rather than assign) in case
  // a local write ticked our own entry during the upcall dances.
  clock_.merge(tentative);

  // Updates that stayed pending are waiting for in-flight dependencies; the
  // arrival of those dependencies schedules the next batch.
}

mcs::ProtocolFactory lazy_batch_protocol(LazyBatchConfig config) {
  return [config](const mcs::McsContext& ctx) {
    return std::make_unique<LazyBatchProcess>(ctx, config);
  };
}

}  // namespace cim::proto
