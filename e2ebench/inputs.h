// Seeded input generators and the exact reference for the end-to-end
// benchmark.
//
// The generators are the benchmark's own (a SplitMix64-seeded xoshiro256**
// stream, not the library's Rng), so a change to the library's randomness
// never changes what the benchmark feeds it: the same seed gives the same
// updates on every commit.  The library only ever receives the finished
// Stream (or, for replay_ckpt, the file written from it).

#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "stream/stream.h"

namespace e2ebench {

class Prng {
 public:
  explicit Prng(uint64_t seed);
  uint64_t Next();
  // Uniform in [0, bound), bound >= 1.
  uint64_t Below(uint64_t bound);
  // Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi);
  // Uniform in [0, 1).
  double Unit();

 private:
  uint64_t s_[4];
};

// A generated stream with the exact frequency vector it realizes.
struct Input {
  gstream::Stream stream{1};
  gstream::FrequencyMap frequencies;  // zero-net items omitted
};

// Zipf-distributed arrivals: each update draws a rank r in [1, ranks] with
// P(r) ~ r^-exponent (rank r mapped to a seeded random item id).  A
// `turnstile_share` of the updates carry a delta of +-1..3 with random
// sign; the rest are +1.
struct ZipfShape {
  size_t updates = 2'000'000;
  uint64_t domain = uint64_t{1} << 20;
  size_t ranks = size_t{1} << 18;
  double exponent = 1.1;
  double turnstile_share = 0.05;
};
Input MakeZipfInput(const ZipfShape& shape, uint64_t seed);

// A flat click log of unit updates in shuffled arrival order: organic
// users clicking 1..12 times, enthusiasts 13..40 times, bots 500..5000
// times, plus `churn_pairs` (+1, -1) insert/delete pairs on random ids
// that leave the final vector unchanged.
struct ClickShape {
  uint64_t domain = uint64_t{1} << 20;
  size_t users = 200'000;
  size_t enthusiasts = 2'000;
  size_t bots = 50;
  size_t churn_pairs = 50'000;
};
Input MakeClickInput(const ClickShape& shape, uint64_t seed);

// Writes `stream` in the gstream-v1 text format (the format LoadStream
// reads).  Returns false on I/O failure.
bool WriteStreamText(const gstream::Stream& stream, const std::string& path);

}  // namespace e2ebench

#endif  // E2EBENCH_INPUTS_H_
