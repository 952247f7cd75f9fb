// Small-buffer-optimized callable wrapper.
//
// InplaceFunction is a move-only std::function replacement with a fixed
// inline capture buffer and no heap allocation. The scheduler creates one
// of these per event — several per simulated packet — so avoiding the
// std::function heap allocation is a first-order win on the hot path.
// Being move-only it also accepts move-only captures (a PacketPtr, say),
// which std::function cannot hold at all.
//
// A callable that does not fit in Capacity bytes is a compile error, not a
// silent fallback to the heap: shrink the capture list or raise Capacity at
// the declaration site.

#ifndef SRC_SIM_INPLACE_FUNCTION_H_
#define SRC_SIM_INPLACE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace tfc {

inline constexpr size_t kDefaultInplaceCapacity = 64;

template <typename Signature, size_t Capacity = kDefaultInplaceCapacity>
class InplaceFunction;

template <typename R, typename... Args, size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  InplaceFunction() noexcept = default;
  InplaceFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InplaceFunction> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  InplaceFunction(F&& f) {  // NOLINT(runtime/explicit)
    static_assert(sizeof(Fn) <= Capacity,
                  "capture list does not fit the inline buffer; shrink it or "
                  "raise Capacity at the declaration site");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned callables are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "callables must be nothrow-movable (the event queue moves "
                  "them out of its slab on pop)");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::value;
  }

  // Constructs a callable in place, replacing the current one. Equivalent
  // to `*this = InplaceFunction(f)` without the intermediate object and its
  // move — the event queue uses this to build callbacks directly in its slab.
  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InplaceFunction> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  void Assign(F&& f) {
    static_assert(sizeof(Fn) <= Capacity,
                  "capture list does not fit the inline buffer; shrink it or "
                  "raise Capacity at the declaration site");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned callables are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "callables must be nothrow-movable (the event queue moves "
                  "them out of its slab on pop)");
    Reset();
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::value;
  }
  void Assign(InplaceFunction&& other) { *this = std::move(other); }

  InplaceFunction(InplaceFunction&& other) noexcept { MoveFrom(other); }
  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  // Raw dispatch pair — the invoke entry point and the callable storage it
  // expects — for callers that compile calls into flat tables instead of
  // paying the ops_-> indirection per call (the telemetry sample plan).
  // Valid while this object stays alive and unmodified; null when empty.
  using RawInvokeFn = R (*)(void*, Args&&...);
  RawInvokeFn raw_invoke() const noexcept {
    return ops_ != nullptr ? ops_->invoke : nullptr;
  }
  void* raw_storage() noexcept { return storage_; }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    // Move-constructs the callable into dst from src, then destroys src.
    // Null for small trivially relocatable callables: movers do a fixed
    // 16-byte inline copy instead of paying an indirect call per move —
    // cheaper for the one-or-two-pointer captures that dominate the event
    // hot path.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);  // null for trivially destructible callables
  };

  // Fixed size of the inline fast-path copy; a 16-byte memcpy is a single
  // vector load/store pair.
  static constexpr size_t kInlineCopyBytes = Capacity < 16 ? Capacity : 16;

  template <typename Fn>
  struct OpsFor {
    static constexpr bool kTrivial = std::is_trivially_copyable_v<Fn> &&
                                     std::is_trivially_destructible_v<Fn> &&
                                     sizeof(Fn) <= kInlineCopyBytes;
    static R Invoke(void* s, Args&&... args) {
      return (*static_cast<Fn*>(s))(std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) noexcept {
      Fn* f = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*f));
      f->~Fn();
    }
    static void Destroy(void* s) noexcept { static_cast<Fn*>(s)->~Fn(); }
    static constexpr Ops value{&Invoke, kTrivial ? nullptr : &Relocate,
                               kTrivial ? nullptr : &Destroy};
  };

  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

  void MoveFrom(InplaceFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->relocate == nullptr) {
        // Fixed-size copy: branchless vector moves, cheaper than a call.
        // The copy deliberately reads up to kInlineCopyBytes even when the
        // callable is smaller; the pad bytes are indeterminate but copying
        // them through unsigned-char storage is well-defined, so silence
        // GCC's uninitialized-read warning for exactly this statement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
        std::memcpy(storage_, other.storage_, kInlineCopyBytes);
#pragma GCC diagnostic pop
      } else {
        other.ops_->relocate(storage_, other.storage_);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace tfc

#endif  // SRC_SIM_INPLACE_FUNCTION_H_
