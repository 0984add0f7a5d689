// The causal hold-back queue of the vector-clock protocols — the CBCAST
// delivery discipline of the paper's Section 1.2 pathway, written once for
// the one causal broadcast, proto::VcReplicaProcess (ANBKH, partial-rep,
// cbcast-dsm and lazy-batch).
//
// Remote updates wait in arrival order; pop_ready() removes the first one
// that is causally ready at the caller's clock (VectorClock::ready_at). The
// scan order is the arrival order, so every protocol's apply order — and
// every pinned trace — depends only on what arrived when.
//
// Storage is one vector live from head_ on: popping the head just advances
// head_ (O(1) however large a delivery burst makes the queue); a mid-queue
// pop erases, and its shift preserves arrival order. The dead prefix is
// compacted once it is half the vector. The retained capacity keeps the
// steady-state queue allocation-free.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/vector_clock.h"

namespace cim {

/// `Update` carries the writer's stamp `VectorClock clock` and the writer's
/// index `writer`.
template <typename Update>
class CausalQueue {
 public:
  void push(Update update) { buf_.push_back(std::move(update)); }

  /// Updates received but not yet popped.
  std::size_t size() const { return buf_.size() - head_; }

  /// Remove and return the first update, in arrival order, that is causally
  /// ready at `clock`; nullopt if none is.
  std::optional<Update> pop_ready(const VectorClock& clock) {
    const auto live = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
    for (auto it = live; it != buf_.end(); ++it) {
      if (!it->clock.ready_at(clock, it->writer)) continue;
      std::optional<Update> ready(std::move(*it));
      if (it == live) {
        ++head_;
      } else {
        buf_.erase(it);
      }
      if (2 * head_ >= buf_.size()) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      return ready;
    }
    return std::nullopt;
  }

 private:
  std::vector<Update> buf_;
  std::size_t head_ = 0;
};

}  // namespace cim
