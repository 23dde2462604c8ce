// Move-only type-erased `void()` callable for simulator events.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace srp::sim {

/// A move-only `void()` callable that stores captures of up to
/// kInlineBytes in place, so scheduling the simulator's per-packet events
/// (a port's `[peer, arrival]`, a host's `[this, arrival]`) allocates
/// nothing.  A larger or over-aligned callable is moved to the heap.
///
/// Moving a Callback moves the stored callable and destroys the source;
/// a capture's moved-from state must therefore not touch the simulator
/// from its destructor (RAII members such as smart pointers never do).
class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  Callback() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                     std::is_invocable_v<D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  /// Runs the callable.  Precondition: the Callback holds one.
  void operator()() const { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs the callable at @p dst from @p src, then destroys
    /// the one at @p src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <class D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <class D>
  static D& inline_ref(void* p) {
    return *std::launder(static_cast<D*>(p));
  }

  template <class D>
  static D* heap_ptr(void* p) {
    return *std::launder(static_cast<D**>(p));
  }

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* p) { inline_ref<D>(p)(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(inline_ref<D>(src)));
        inline_ref<D>(src).~D();
      },
      [](void* p) noexcept { inline_ref<D>(p).~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* p) { (*heap_ptr<D>(p))(); },
      [](void* dst, void* src) noexcept { ::new (dst) D*(heap_ptr<D>(src)); },
      [](void* p) noexcept { delete heap_ptr<D>(p); }};

  /// Moves @p other's callable here; *this must be empty.
  void take(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  alignas(void*) mutable unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace srp::sim
