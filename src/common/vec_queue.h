// A vector-backed FIFO queue for hot-path work queues.
//
// std::deque pays a ~512-byte chunk allocation/deallocation every few dozen
// push/pop cycles even when the queue stays tiny, which breaks the
// steady-state allocation-free invariant (docs/ARCHITECTURE.md). VecQueue
// keeps elements in one std::vector with a head index: pushes append, pops
// advance the head, and storage is reclaimed by resetting when the queue
// drains (the common case — these queues empty between operations) or by an
// order-preserving compaction once the dead prefix dominates. Capacity is
// retained across drain cycles, so a warmed queue never allocates again.
//
// FIFO order is identical to std::deque's, so swapping one for the other
// cannot change any execution's event order.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace cim {

template <typename T>
class VecQueue {
 public:
  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }

  void push_back(T value) { buf_.push_back(std::move(value)); }

  T& front() {
    CIM_DCHECK(!empty());
    return buf_[head_];
  }

  T& back() {
    CIM_DCHECK(!empty());
    return buf_.back();
  }

  T& operator[](std::size_t i) {
    CIM_DCHECK(i < size());
    return buf_[head_ + i];
  }

  void pop_front() {
    CIM_DCHECK(!empty());
    ++head_;
    if (head_ == buf_.size()) {
      // Drained: reuse the whole capacity from the start.
      buf_.clear();
      head_ = 0;
    } else if (head_ >= kCompactAt && head_ * 2 >= buf_.size()) {
      // The dead prefix dominates a queue that never fully drains; compact
      // in place (order-preserving) so memory stays proportional to size().
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  void clear() {
    buf_.clear();
    head_ = 0;
  }

  void reserve(std::size_t n) { buf_.reserve(n); }

  // Iteration covers the live elements, front to back.
  T* begin() { return buf_.data() + head_; }
  T* end() { return buf_.data() + buf_.size(); }
  const T* begin() const { return buf_.data() + head_; }
  const T* end() const { return buf_.data() + buf_.size(); }

 private:
  static constexpr std::size_t kCompactAt = 64;

  std::vector<T> buf_;
  std::size_t head_ = 0;
};

}  // namespace cim
