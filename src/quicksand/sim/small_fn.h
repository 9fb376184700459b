// SmallFn: the event callback type of the discrete-event core.
//
// A move-only `void()` callable with inline storage sized for the callbacks
// the simulator actually schedules — a captured coroutine handle (8 bytes), a
// this-pointer plus a couple of ints, or a moved-in std::function (32 bytes).
// Anything that fits is stored in place, so the schedule/fire hot path never
// touches the heap; larger callables fall back to a single heap allocation.
//
// This replaces std::function in Simulator::Schedule: std::function's
// type-erasure allocates for the capture lists our wakeup lambdas carry, and
// at millions of events per second that allocation (plus its free at fire
// time) dominated the event loop.

#ifndef QUICKSAND_SIM_SMALL_FN_H_
#define QUICKSAND_SIM_SMALL_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace quicksand {

class SmallFn {
 public:
  static constexpr size_t kInlineBytes = 48;

  SmallFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, SmallFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs *src into dst and destroys *src (storage relocation for
    // pool growth and SmallFn moves; both storages are raw and unconstructed
    // or moved-from afterwards).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* p) { delete *static_cast<Fn**>(p); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace quicksand

#endif  // QUICKSAND_SIM_SMALL_FN_H_
