// Small bit-manipulation helpers shared across the library.

#ifndef GSTREAM_UTIL_BIT_H_
#define GSTREAM_UTIL_BIT_H_

#include <cstddef>
#include <cstdint>

#include "util/logging.h"

namespace gstream {

// Index of the lowest set bit of `x` (i_x in the paper's g_np definition,
// Appendix D.1).  Requires x != 0.
inline int LowestSetBit(uint64_t x) {
  GSTREAM_CHECK(x != 0);
  return __builtin_ctzll(x);
}

// Floor of log2(x).  Requires x > 0.
inline int Log2Floor(uint64_t x) {
  GSTREAM_CHECK(x > 0);
  return 63 - __builtin_clzll(x);
}

// Ceiling of log2(x).  Requires x > 0; Log2Ceil(1) == 0.
inline int Log2Ceil(uint64_t x) {
  GSTREAM_CHECK(x > 0);
  return (x == 1) ? 0 : Log2Floor(x - 1) + 1;
}

// Smallest power of two >= x.  Requires x >= 1.
inline uint64_t NextPow2(uint64_t x) { return uint64_t{1} << Log2Ceil(x); }

// Two's-complement arithmetic mod 2^64 on int64 counters.  Linear sketch
// counters are defined mod 2^64 -- that is what lets a batch fold or a
// coalesced chunk reorder additions freely -- so every counter negation
// and accumulation goes through uint64_t, where wraparound is defined
// (signed overflow is not).
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

// counters[idx[i]] += delta[i] (mod 2^64) for i < n: the row scatter of
// the batched CountSketch and Count-Min kernels.  Duplicate indices fold
// in stream order, and any other order would give the same bits.  A plain
// loop on purpose: vector scatters (AVX2 interleaved, AVX-512
// vpconflictq) lost to it on every measured host (docs/simd.md).
inline void ScatterAdd(int64_t* counters, const uint32_t* idx,
                       const int64_t* delta, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    counters[idx[i]] = WrapAdd(counters[idx[i]], delta[i]);
  }
}

// `a` if the low bit of `h` is set, else -a (mod 2^64): the +-1 sign a
// sketch row derives from its hash.  Branch-free ((a ^ m) - m with m all
// ones exactly when the sign is -1), since the sign is a coin flip per
// update and a branch on it mispredicts half the time.
inline int64_t SignByLowBit(int64_t a, uint64_t h) {
  const uint64_t m = (h & 1) - 1;
  return static_cast<int64_t>((static_cast<uint64_t>(a) ^ m) - m);
}

}  // namespace gstream

#endif  // GSTREAM_UTIL_BIT_H_
