// A small-buffer-optimized, move-only callable — the event core's
// replacement for std::function.
//
// std::function requires its target to be copyable and heap-allocates any
// closure larger than the implementation's tiny inline buffer (typically 16
// bytes on libstdc++ — two words). Simulator events routinely capture a
// `this`, a MessagePtr, a couple of ids and a timestamp (~48-64 bytes), so
// with std::function every scheduled event costs a heap round trip, and every
// MessagePtr has to be boxed in a shared_ptr to satisfy copyability.
//
// SmallFn fixes both: 64 bytes of inline storage (every steady-state closure
// in this repository fits), move-only semantics (MessagePtr captures move
// straight in), and pool-backed overflow — a closure that does not fit draws
// a recycled block from cim::BlockPool instead of the global heap, keeping
// the hot path allocation-free even for the occasional oversized capture.
//
// Differences from std::function, on purpose:
//  - move-only (copying a queued event is never meaningful here);
//  - invoking an empty SmallFn is a CIM_DCHECK, not bad_function_call — an
//    empty action in the event queue is a repository bug, not a user error;
//  - no target()/target_type() RTTI.
// Copyable lvalue callables still convert by copy, exactly like
// std::function, so existing call sites (e.g. re-scheduling a named lambda)
// compile unchanged.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/pool.h"

namespace cim {

template <typename Signature, std::size_t InlineSize = 64>
class SmallFn;

template <typename R, typename... Args, std::size_t InlineSize>
class SmallFn<R(Args...), InlineSize> {
  static_assert(InlineSize >= 48, "inline buffer must hold a typical event "
                                  "closure (this + MessagePtr + ids + time)");

 public:
  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept
      : invoke_(other.invoke_), manage_(other.manage_) {
    // Trivially-copyable inline closures (the common case: `this` plus a few
    // scalars) have manage_ == nullptr and relocate with one memcpy — no
    // indirect call, no destructor. See construct().
    if (manage_ != nullptr) {
      manage_(Op::kMoveFrom, this, &other);
    } else if (invoke_ != nullptr) {
      std::memcpy(buf_, other.buf_, InlineSize);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      if (manage_ != nullptr) {
        manage_(Op::kMoveFrom, this, &other);
      } else if (invoke_ != nullptr) {
        std::memcpy(buf_, other.buf_, InlineSize);
      }
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
    return *this;
  }

  SmallFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  SmallFn& operator=(F&& f) {
    reset();
    construct<D>(std::forward<F>(f));
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    CIM_DCHECK_MSG(invoke_ != nullptr, "invoking an empty SmallFn");
    return invoke_(const_cast<SmallFn*>(this),
                   std::forward<Args>(args)...);
  }

 private:
  enum class Op { kDestroy, kMoveFrom };
  using Invoke = R (*)(SmallFn*, Args&&...);
  using Manage = void (*)(Op, SmallFn* self, SmallFn* from);

  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= InlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  struct InlineHandler {
    static F* target(SmallFn* self) noexcept {
      return std::launder(reinterpret_cast<F*>(self->buf_));
    }
    static R invoke(SmallFn* self, Args&&... args) {
      return (*target(self))(std::forward<Args>(args)...);
    }
    static void manage(Op op, SmallFn* self, SmallFn* from) {
      switch (op) {
        case Op::kDestroy:
          target(self)->~F();
          break;
        case Op::kMoveFrom:
          ::new (static_cast<void*>(self->buf_)) F(std::move(*target(from)));
          target(from)->~F();
          break;
      }
    }
  };

  template <typename F>
  struct HeapHandler {
    static F* target(SmallFn* self) noexcept {
      return static_cast<F*>(self->heap_);
    }
    static R invoke(SmallFn* self, Args&&... args) {
      return (*target(self))(std::forward<Args>(args)...);
    }
    static void manage(Op op, SmallFn* self, SmallFn* from) {
      switch (op) {
        case Op::kDestroy:
          target(self)->~F();
          BlockPool::deallocate(self->heap_);
          self->heap_ = nullptr;
          break;
        case Op::kMoveFrom:
          self->heap_ = from->heap_;
          from->heap_ = nullptr;
          break;
      }
    }
  };

  template <typename F, typename Arg>
  void construct(Arg&& f) {
    if constexpr (kFitsInline<F> && std::is_trivially_copyable_v<F>) {
      // Trivial closures need no handler at all: relocation is memcpy (see
      // the move operations) and destruction is a no-op. manage_ stays null.
      // A stateless closure writes no byte of the buffer; zero it here, at
      // construction, so the relocating memcpy never reads indeterminate
      // bytes (and GCC's -Wmaybe-uninitialized has nothing to report).
      if constexpr (std::is_empty_v<F>) std::memset(buf_, 0, InlineSize);
      ::new (static_cast<void*>(buf_)) F(std::forward<Arg>(f));
      invoke_ = &InlineHandler<F>::invoke;
    } else if constexpr (kFitsInline<F>) {
      ::new (static_cast<void*>(buf_)) F(std::forward<Arg>(f));
      invoke_ = &InlineHandler<F>::invoke;
      manage_ = &InlineHandler<F>::manage;
    } else {
      static_assert(alignof(F) <= alignof(std::max_align_t),
                    "over-aligned callables are not supported");
      void* mem = BlockPool::allocate(sizeof(F));
      heap_ = ::new (mem) F(std::forward<Arg>(f));
      invoke_ = &HeapHandler<F>::invoke;
      manage_ = &HeapHandler<F>::manage;
    }
  }

  void reset() noexcept {
    // Trivial inline closures have no handler (manage_ == nullptr) and need
    // no destruction, but invoke_ must still drop to restore the empty state.
    if (manage_ != nullptr) manage_(Op::kDestroy, this, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
  union {
    void* heap_;
    alignas(std::max_align_t) unsigned char buf_[InlineSize];
  };
};

template <typename Sig, std::size_t N>
bool operator==(const SmallFn<Sig, N>& f, std::nullptr_t) noexcept {
  return !f;
}
template <typename Sig, std::size_t N>
bool operator!=(const SmallFn<Sig, N>& f, std::nullptr_t) noexcept {
  return static_cast<bool>(f);
}

}  // namespace cim
