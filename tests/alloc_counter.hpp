// Global allocation counter for the zero-allocation proofs.
//
// Replaces every replaceable form of operator new and operator delete:
// plain, array, nothrow and align_val_t allocation, and plain, array,
// sized, nothrow and aligned deallocation. Every allocation form counts,
// so an allocation a hot path makes through a nothrow or aligned overload
// (std::stable_sort's temporary buffer is nothrow) cannot slip past a
// proof, and every pointer is released the way it was obtained: all forms
// are malloc-backed and all deallocations call std::free, which is also
// what AddressSanitizer's alloc-dealloc check expects.
//
// gtest and the harness allocate too, so tests only compare deltas of
// alloc_counter::count() around code they fully control.
//
// Replacement functions may not be inline: include this header from
// exactly one translation unit per test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

// GCC flags std::free on new[]-ed pointers at inlined call sites, but every
// replacement operator new below IS malloc-backed: the pairing is correct.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace alloc_counter {

inline std::atomic<std::uint64_t> allocations{0};

/// Allocations made so far in this process, by any operator new form.
inline std::uint64_t count() noexcept {
  return allocations.load(std::memory_order_relaxed);
}

inline void* allocate(std::size_t size) noexcept {
  allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

inline void* allocate(std::size_t size, std::align_val_t align) noexcept {
  allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

template <typename... Align>
void* allocate_or_throw(std::size_t size, Align... align) {
  if (void* p = allocate(size, align...)) return p;
  throw std::bad_alloc();
}

}  // namespace alloc_counter

void* operator new(std::size_t size) {
  return alloc_counter::allocate_or_throw(size);
}
void* operator new[](std::size_t size) {
  return alloc_counter::allocate_or_throw(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_counter::allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_counter::allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return alloc_counter::allocate_or_throw(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return alloc_counter::allocate_or_throw(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return alloc_counter::allocate(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return alloc_counter::allocate(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
