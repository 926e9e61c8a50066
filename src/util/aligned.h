// 64-byte-aligned storage for sketch counter arrays.
//
// The gather kernels (util/simd/) index counter rows with 64-bit lane
// offsets; aligning the base allocation to a cache line guarantees an
// 8-wide gather over 8 consecutive buckets never splits a line,
// and gives the scalar path cleanly aligned rows for free whenever the
// row stride is a multiple of 8 counters (every default geometry is).
// std::vector's default allocator only promises alignof(std::max_align_t)
// (16 on this ABI), so counter vectors use this allocator instead.
//
// The allocator is stateless: vectors with the same value_type and
// alignment compare, swap, and move interchangeably.  It is a distinct
// type from std::vector<T>, so comparing against a plain vector requires
// std::equal (the few test sites that do this construct the expected
// values in an aligned vector instead).

#ifndef GSTREAM_UTIL_ALIGNED_H_
#define GSTREAM_UTIL_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace gstream {

template <typename T, size_t Alignment>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must not weaken the type's natural alignment");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }

  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }
};

template <typename T, typename U, size_t A>
bool operator==(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return true;
}

template <typename T, typename U, size_t A>
bool operator!=(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return false;
}

// The counter-array type shared by CountSketch/Count-Min/AMS: contents and
// semantics of std::vector<int64_t>, data() on a cache-line boundary.
using AlignedI64Vector = std::vector<int64_t, AlignedAllocator<int64_t, 64>>;

// True if `p` sits on a 64-byte boundary; the sketch constructors assert
// this on their counter allocations in debug builds.
inline bool IsCacheLineAligned(const void* p) {
  return (reinterpret_cast<uintptr_t>(p) & 63) == 0;
}

}  // namespace gstream

#endif  // GSTREAM_UTIL_ALIGNED_H_
