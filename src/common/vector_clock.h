// Vector clocks over the processes of one system, with small-vector storage.
//
// Used by the propagation-based MCS protocols (ANBKH, lazy-batch) to track
// the causal order of write operations within a system. Entry i counts the
// number of writes by local process i that the owner has applied.
//
// A clock is stamped onto every update message, so its representation is on
// the simulate→send→deliver→apply hot path. Up to kInline (8) entries live
// directly inside the object — that covers every configuration in examples/
// and bench/ — so stamping a message is a fixed-size copy with no heap
// traffic. Larger systems spill to a cim::BlockPool block, which recycles
// across messages in steady state.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>

#include "common/check.h"
#include "common/pool.h"

namespace cim {

class VectorClock {
 public:
  /// Entries stored inline (no heap) — sized for the repo's experiment
  /// configurations; see the spill tests in tests/common_test.cpp.
  static constexpr std::size_t kInline = 8;

  VectorClock() noexcept : data_(inline_), size_(0) {}

  explicit VectorClock(std::size_t n) {
    init(n);
    std::memset(data_, 0, n * sizeof(std::uint64_t));
  }

  VectorClock(std::initializer_list<std::uint64_t> init_list) {
    init(init_list.size());
    std::size_t i = 0;
    for (std::uint64_t v : init_list) data_[i++] = v;
  }

  VectorClock(const VectorClock& other) {
    init(other.size_);
    std::memcpy(data_, other.data_, size_ * sizeof(std::uint64_t));
  }

  VectorClock(VectorClock&& other) noexcept {
    steal(other);
  }

  VectorClock& operator=(const VectorClock& other) {
    if (this != &other) {
      if (size_ != other.size_) {
        release();
        init(other.size_);
      }
      std::memcpy(data_, other.data_, size_ * sizeof(std::uint64_t));
    }
    return *this;
  }

  VectorClock& operator=(VectorClock&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~VectorClock() { release(); }

  std::size_t size() const { return size_; }

  std::uint64_t operator[](std::size_t i) const {
    CIM_DCHECK(i < size_);
    return data_[i];
  }

  /// Increment entry i (a new write by process i).
  void tick(std::size_t i) {
    CIM_DCHECK(i < size_);
    ++data_[i];
  }

  void set(std::size_t i, std::uint64_t v) {
    CIM_DCHECK(i < size_);
    data_[i] = v;
  }

  /// Pointwise maximum with `other`; both clocks must have equal size.
  void merge(const VectorClock& other);

  /// True iff every entry of *this is <= the corresponding entry of other.
  bool leq(const VectorClock& other) const;

  /// True iff leq(other) and the clocks differ (strict causal precedence).
  bool lt(const VectorClock& other) const;

  /// True iff neither clock precedes the other (concurrent writes).
  bool concurrent_with(const VectorClock& other) const;

  /// A write stamped `w` by process `writer` is *causally ready* at a replica
  /// whose clock is *this iff w[writer] == (*this)[writer]+1 and
  /// w[j] <= (*this)[j] for all j != writer. (ANBKH delivery condition.)
  bool ready_at(const VectorClock& replica_clock, std::size_t writer) const;

  bool operator==(const VectorClock& other) const {
    return size_ == other.size_ &&
           std::memcmp(data_, other.data_, size_ * sizeof(std::uint64_t)) == 0;
  }

  std::string to_string() const;

 private:
  void init(std::size_t n) {
    size_ = static_cast<std::uint32_t>(n);
    data_ = n <= kInline
                ? inline_
                : static_cast<std::uint64_t*>(
                      BlockPool::allocate(n * sizeof(std::uint64_t)));
  }

  void release() noexcept {
    if (data_ != inline_) BlockPool::deallocate(data_);
  }

  // Take other's storage (heap pointer stolen, inline entries copied) and
  // leave it empty. Precondition: *this holds no storage.
  void steal(VectorClock& other) noexcept {
    size_ = other.size_;
    if (other.data_ == other.inline_) {
      data_ = inline_;
      // Inline storage never holds more than kInline entries (init()); say
      // so, or GCC cannot bound this copy and warns -Warray-bounds.
      if (size_ > kInline) __builtin_unreachable();
      std::memcpy(inline_, other.inline_, size_ * sizeof(std::uint64_t));
    } else {
      data_ = other.data_;
    }
    other.data_ = other.inline_;
    other.size_ = 0;
  }

  std::uint64_t* data_;
  std::uint32_t size_;
  std::uint64_t inline_[kInline];
};

}  // namespace cim
