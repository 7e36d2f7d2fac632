// AnyExample — the type-erased example holder behind the serving facade.
//
// The paper's abstraction (§2) is deliberately domain-agnostic: an assertion
// is an arbitrary function over a model's inputs and outputs. The engine
// templates everything on the domain's example struct, which is right for
// the scoring hot path but forces one service instance per domain.
// AnyExample erases that template parameter so a single sharded runtime can
// queue, schedule, and account for every domain's traffic together.
//
// Design:
//   * small-buffer storage: examples whose type fits `kInlineCapacity`
//     (sized so all four shipped domains fit) live inside the holder — no
//     allocation on the wrap path; larger types go to the heap;
//   * a per-domain vtable built from a `DomainTraits<T>` specialization:
//     the domain tag plus clone / destroy / debug-string hooks. The vtable
//     is a function-local static, so holder identity checks are single
//     pointer compares — no RTTI on the hot path.
//
// Registering a new domain is one `DomainTraits` specialization; see
// src/video/factory.hpp for the pattern.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace omg::serve {

/// Per-domain customization point for AnyExample. Specialize for every
/// example type served through the facade:
///
///   template <> struct omg::serve::DomainTraits<MyExample> {
///     /// Stable domain tag; qualifies assertion names ("<domain>/<name>").
///     static constexpr std::string_view kDomain = "mydomain";
///     /// One-line human-readable rendering (diagnostics, typed errors).
///     static std::string DebugString(const MyExample&);
///   };
///
/// The example type itself must be copy-constructible (clone support).
template <typename T>
struct DomainTraits;  // intentionally undefined: specialize per domain

/// Type-erased, domain-tagged holder of one example. Copyable (clones the
/// payload through the domain vtable) and nothrow-movable.
class AnyExample {
 public:
  /// Payloads up to this size (and max_align_t alignment) are stored
  /// inline. Sized so every shipped domain's example type fits with
  /// headroom (the largest, av::AvExample, is 96 bytes on LP64) while the
  /// whole holder stays at 144 bytes — holders are streamed by value
  /// through producer batches and shard queues, so their footprint is
  /// the facade's main throughput lever.
  static constexpr std::size_t kInlineCapacity = 136;

  /// An empty holder (no domain, no payload); only assignment and
  /// destruction are meaningful.
  AnyExample() = default;

  /// Wraps `value` under its DomainTraits domain. The payload is moved in;
  /// small types land in the inline buffer, large ones on the heap.
  template <typename T>
  static AnyExample Make(T value) {
    AnyExample out;
    out.Emplace<T>(std::move(value));
    return out;
  }

  /// Constructs a `T` payload in place from `args` (replacing any current
  /// payload) — the single-copy wrap path bulk producers should prefer
  /// over Make + push_back (which moves the holder once more).
  template <typename T, typename... Args>
  void Emplace(Args&&... args) {
    using Payload = std::remove_cvref_t<T>;
    static_assert(std::is_copy_constructible_v<Payload>,
                  "AnyExample payloads must be copy-constructible");
    Reset();
    if constexpr (Ops<Payload>::kInline) {
      ::new (static_cast<void*>(buffer_))
          Payload(std::forward<Args>(args)...);
    } else {
      void* heap = Ops<Payload>::AllocateSpill();
      try {
        ::new (heap) Payload(std::forward<Args>(args)...);
      } catch (...) {
        Ops<Payload>::ReleaseSpill(heap);
        throw;
      }
      std::memcpy(buffer_, &heap, sizeof(heap));
    }
    vtable_ = &VTableFor<Payload>();
  }

  AnyExample(AnyExample&& other) noexcept { MoveFrom(other); }

  AnyExample& operator=(AnyExample&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  /// Clones the payload through the domain vtable.
  AnyExample(const AnyExample& other) {
    if (other.vtable_ != nullptr) {
      if (other.vtable_->trivial) {
        std::memcpy(buffer_, other.buffer_, other.vtable_->payload_size);
      } else {
        other.vtable_->clone_into(other, *this);
      }
      vtable_ = other.vtable_;
    }
  }

  AnyExample& operator=(const AnyExample& other) {
    if (this != &other) {
      AnyExample copy(other);
      Reset();
      MoveFrom(copy);
    }
    return *this;
  }

  ~AnyExample() { Reset(); }

  /// True when a payload is held.
  bool has_value() const { return vtable_ != nullptr; }

  /// The payload's domain tag (empty for an empty holder).
  std::string_view domain() const {
    return vtable_ != nullptr ? vtable_->domain : std::string_view{};
  }

  /// True when the payload is exactly a `T`.
  template <typename T>
  bool Is() const {
    return vtable_ == &VTableFor<std::remove_cvref_t<T>>();
  }

  /// The payload as `T`, or nullptr when empty / a different type.
  template <typename T>
  const T* TryGet() const {
    return Is<T>() ? static_cast<const T*>(raw()) : nullptr;
  }

  /// Mutable payload access (same type check as TryGet) — for adapters
  /// that move the payload *out* of the holder, e.g. the typed stream
  /// scorer ingesting a facade batch into a typed window. Moving from the
  /// payload leaves it valid-but-unspecified; the holder still owns and
  /// destroys it.
  template <typename T>
  T* TryGetMutable() {
    return Is<T>() ? static_cast<T*>(raw()) : nullptr;
  }

  /// The payload as `T`; throws CheckError when empty / a different type
  /// (use TryGet on paths that must not throw).
  template <typename T>
  const T& Get() const {
    const T* typed = TryGet<T>();
    common::Check(typed != nullptr,
                  "AnyExample::Get<T>: holder carries domain '" +
                      std::string(domain()) + "', not the requested type");
    return *typed;
  }

  /// An opaque identity key: equal keys <=> same payload type (and so
  /// same domain). Lets hot validation loops replace per-example string
  /// compares with a pointer compare; nullptr for an empty holder.
  const void* TypeKey() const { return vtable_; }

  /// One-line human-readable rendering ("<empty>" for an empty holder).
  std::string DebugString() const {
    return vtable_ != nullptr ? vtable_->debug_string(raw()) : "<empty>";
  }

 private:
  /// The per-domain operation table; one function-local static per payload
  /// type, so `vtable_` pointer identity doubles as the type check.
  struct VTable {
    std::string_view domain;
    bool inline_storage;
    /// Inline + trivially copyable: move/clone/destroy are a plain
    /// `payload_size` memcpy (or nothing), skipping the indirect calls —
    /// the move fast path the window/queue hot loops hit.
    bool trivial;
    std::size_t payload_size;
    void (*destroy)(AnyExample&) noexcept;
    /// Moves src's payload into dst's (raw) storage; src keeps its vtable.
    void (*relocate)(AnyExample& src, AnyExample& dst) noexcept;
    /// Copy-constructs src's payload into dst's (raw) storage.
    void (*clone_into)(const AnyExample& src, AnyExample& dst);
    std::string (*debug_string)(const void*);
  };

  template <typename T>
  struct Ops {
    static constexpr bool kInline =
        sizeof(T) <= kInlineCapacity &&
        alignof(T) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<T>;

    /// Heap-spilled payloads get a block aligned for T, whatever its
    /// alignment.
    static void* AllocateSpill() {
      return ::operator new(sizeof(T), std::align_val_t(alignof(T)));
    }

    static void ReleaseSpill(void* block) noexcept {
      ::operator delete(block, std::align_val_t(alignof(T)));
    }

    static void Destroy(AnyExample& self) noexcept {
      if constexpr (kInline) {
        static_cast<T*>(self.raw())->~T();
      } else {
        T* payload = static_cast<T*>(self.raw());
        payload->~T();
        ReleaseSpill(payload);
      }
    }

    static void Relocate(AnyExample& src, AnyExample& dst) noexcept {
      if constexpr (kInline) {
        T* payload = static_cast<T*>(src.raw());
        ::new (static_cast<void*>(dst.buffer_)) T(std::move(*payload));
        payload->~T();
      } else {
        std::memcpy(dst.buffer_, src.buffer_, sizeof(void*));
      }
    }

    static void CloneInto(const AnyExample& src, AnyExample& dst) {
      const T& payload = *static_cast<const T*>(src.raw());
      if constexpr (kInline) {
        ::new (static_cast<void*>(dst.buffer_)) T(payload);
      } else {
        void* heap = AllocateSpill();
        try {
          ::new (heap) T(payload);
        } catch (...) {
          ReleaseSpill(heap);
          throw;
        }
        std::memcpy(dst.buffer_, &heap, sizeof(heap));
      }
    }

    static std::string DebugString(const void* payload) {
      return DomainTraits<T>::DebugString(*static_cast<const T*>(payload));
    }
  };

  /// The unique vtable for payload type T. A constant-initialized inline
  /// variable template: one instance per type across translation units
  /// (so pointer identity is the type check) and no init-guard on access
  /// (TryGet/Is run per element on hot loops).
  template <typename T>
  static constexpr VTable kVTableFor{DomainTraits<T>::kDomain,
                                     Ops<T>::kInline,
                                     Ops<T>::kInline &&
                                         std::is_trivially_copyable_v<T>,
                                     sizeof(T),
                                     &Ops<T>::Destroy,
                                     &Ops<T>::Relocate,
                                     &Ops<T>::CloneInto,
                                     &Ops<T>::DebugString};

  template <typename T>
  static const VTable& VTableFor() {
    return kVTableFor<T>;
  }

  const void* raw() const {
    if (vtable_->inline_storage) return buffer_;
    void* heap = nullptr;
    std::memcpy(&heap, buffer_, sizeof(heap));
    return heap;
  }
  void* raw() { return const_cast<void*>(std::as_const(*this).raw()); }

  void Reset() noexcept {
    if (vtable_ != nullptr) {
      if (!vtable_->trivial) vtable_->destroy(*this);
      vtable_ = nullptr;
    }
  }

  /// Precondition: *this is empty.
  void MoveFrom(AnyExample& other) noexcept {
    const VTable* vtable = other.vtable_;
    if (vtable == nullptr) return;
    if (vtable->trivial) {
      std::memcpy(buffer_, other.buffer_, vtable->payload_size);
    } else if (!vtable->inline_storage) {
      std::memcpy(buffer_, other.buffer_, sizeof(void*));
    } else {
      vtable->relocate(other, *this);
    }
    vtable_ = vtable;
    other.vtable_ = nullptr;
  }

  // Buffer first: with the vtable pointer trailing, the padding that
  // max_align_t alignment would otherwise insert between the members
  // disappears and the holder shrinks by 16 bytes — measurable on the
  // window/queue hot loops, which stream holders by value.
  alignas(std::max_align_t) std::byte buffer_[kInlineCapacity];
  const VTable* vtable_ = nullptr;
};

/// Wraps a typed span into facade holders, one copy per example (the bulk
/// producer path: `monitor.ObserveBatch(handle, WrapBatch(span))`).
template <typename T>
std::vector<AnyExample> WrapBatch(std::span<const T> examples) {
  // Pre-sized holders filled through the data pointer: the default ctor
  // only nulls the vtable word, and a plain indexed loop lets the copies
  // flatten — measurably faster than reserve + emplace_back, which
  // re-checks capacity and re-loads the end pointer per element.
  std::vector<AnyExample> batch(examples.size());
  AnyExample* out = batch.data();
  for (std::size_t i = 0; i < examples.size(); ++i) {
    out[i].Emplace<T>(examples[i]);
  }
  return batch;
}

}  // namespace omg::serve
