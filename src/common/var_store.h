// Per-replica variable store: VarId -> (Value, WriteId).
//
// Every protocol replica consults its store on each read, write, and applied
// update, so this sits squarely on the per-event path. Variable ids in
// practice are small and dense (workloads index them 0..num_vars-1), so the
// store keeps a flat vector indexed by VarId — a load, not a hash probe —
// and spills to an unordered_map only for pathological sparse ids. The dense
// vector grows geometrically and never shrinks; after the first touch of the
// working set, reads and writes allocate nothing (docs/ARCHITECTURE.md).
//
// Each slot keeps the WriteId of the write that stored its value, so a read
// names the write it returned: the replica, not the value, identifies it.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/value.h"

namespace cim {

/// One variable's replica: its value and the write that stored it. The
/// default (kInitValue, invalid wid) is the paper's initial state.
struct StoredValue {
  Value value = kInitValue;
  WriteId wid;
};

class VarStore {
 public:
  /// Replica of `var`; the initial state if never written.
  StoredValue get(VarId var) const {
    if (var.value < dense_.size()) return dense_[var.value];
    if (var.value < kDenseLimit) return StoredValue{};
    auto it = sparse_.find(var.value);
    return it == sparse_.end() ? StoredValue{} : it->second;
  }

  void set(VarId var, Value value, WriteId wid) {
    if (var.value < kDenseLimit) {
      if (var.value >= dense_.size()) grow(var.value);
      dense_[var.value] = StoredValue{value, wid};
      return;
    }
    sparse_[var.value] = StoredValue{value, wid};
  }

 private:
  // Ids below this live in the dense vector (16 KiB fully grown); beyond it
  // (nobody in this repository) they fall back to the map.
  static constexpr std::uint32_t kDenseLimit = 1024;

  void grow(std::uint32_t var) {
    std::size_t n = dense_.empty() ? 16 : dense_.size() * 2;
    while (n <= var) n *= 2;
    if (n > kDenseLimit) n = kDenseLimit;
    dense_.resize(n);
  }

  std::vector<StoredValue> dense_;
  std::unordered_map<std::uint32_t, StoredValue> sparse_;
};

}  // namespace cim
