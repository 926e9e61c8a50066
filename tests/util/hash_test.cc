#include "util/hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "util/random.h"

namespace gstream {
namespace {

TEST(ModMersenne61Test, SmallValuesUnchanged) {
  EXPECT_EQ(ModMersenne61(0), 0u);
  EXPECT_EQ(ModMersenne61(1), 1u);
  EXPECT_EQ(ModMersenne61(kMersenne61 - 1), kMersenne61 - 1);
}

TEST(ModMersenne61Test, ModulusMapsToZero) {
  EXPECT_EQ(ModMersenne61(kMersenne61), 0u);
  EXPECT_EQ(ModMersenne61(static_cast<__uint128_t>(kMersenne61) * 2), 0u);
  EXPECT_EQ(ModMersenne61(static_cast<__uint128_t>(kMersenne61) *
                          kMersenne61),
            0u);
}

TEST(ModMersenne61Test, AgreesWithNaiveModOnRandomInputs) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const __uint128_t x =
        (static_cast<__uint128_t>(rng.NextUint64()) << 64) | rng.NextUint64();
    EXPECT_EQ(ModMersenne61(x),
              static_cast<uint64_t>(x % kMersenne61));
  }
}

TEST(MulMod61Test, MatchesNaive128BitProduct) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t a = rng.UniformUint64(kMersenne61);
    const uint64_t b = rng.UniformUint64(kMersenne61);
    const __uint128_t p = static_cast<__uint128_t>(a) * b;
    EXPECT_EQ(MulMod61(a, b), static_cast<uint64_t>(p % kMersenne61));
  }
}

// Eval4Wise must be exact over its whole documented input range -- lazy
// x <= p + 7, x2 and x3 < 2^63, coefficients < p -- not just over the
// powers FieldPowers3Lazy happens to produce.  At the top of that range
// the 128-bit sum exceeds 2^125, so the reduction must keep the bits of
// the high word above 2^61.
TEST(Eval4WiseTest, ExactAtDocumentedLazyBounds) {
  const auto exact = [](uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                        uint64_t x, uint64_t x2, uint64_t x3) {
    const __uint128_t sum = static_cast<__uint128_t>(c1) * x +
                            static_cast<__uint128_t>(c2) * x2 +
                            static_cast<__uint128_t>(c3) * x3 + c0;
    return static_cast<uint64_t>(sum % kMersenne61);
  };
  const uint64_t top = (uint64_t{1} << 63) - 1;
  const uint64_t c_max = kMersenne61 - 1;
  Rng rng(41);
  for (const uint64_t x : {kMersenne61 + 7, kMersenne61, uint64_t{0}}) {
    for (const uint64_t x2 : {top, top - 1, uint64_t{1} << 62}) {
      for (const uint64_t x3 : {top, top - 6, uint64_t{0}}) {
        for (const uint64_t c0 : {c_max, uint64_t{0}}) {
          EXPECT_EQ(Eval4Wise(c0, c_max, c_max, c_max, x, x2, x3),
                    exact(c0, c_max, c_max, c_max, x, x2, x3))
              << x << " " << x2 << " " << x3 << " " << c0;
        }
      }
    }
  }
  for (int i = 0; i < 1000; ++i) {
    const uint64_t c0 = rng.UniformUint64(kMersenne61);
    const uint64_t c1 = rng.UniformUint64(kMersenne61);
    const uint64_t c2 = rng.UniformUint64(kMersenne61);
    const uint64_t c3 = rng.UniformUint64(kMersenne61);
    const uint64_t x = rng.UniformUint64(kMersenne61 + 8);
    const uint64_t x2 = rng.UniformUint64(top);
    const uint64_t x3 = rng.UniformUint64(top);
    EXPECT_EQ(Eval4Wise(c0, c1, c2, c3, x, x2, x3),
              exact(c0, c1, c2, c3, x, x2, x3));
  }
}

TEST(KWiseHashTest, DeterministicGivenSeed) {
  Rng rng1(7), rng2(7);
  KWiseHash h1(4, rng1), h2(4, rng2);
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(h1(x), h2(x));
  }
}

TEST(KWiseHashTest, IndependentDrawsDiffer) {
  Rng rng(7);
  KWiseHash h1(4, rng), h2(4, rng);
  int equal = 0;
  for (uint64_t x = 0; x < 100; ++x) {
    if (h1(x) == h2(x)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(KWiseHashTest, SpaceIsKWords) {
  Rng rng(9);
  for (int k = 1; k <= 6; ++k) {
    KWiseHash h(k, rng);
    EXPECT_EQ(h.SpaceBytes(), static_cast<size_t>(k) * sizeof(uint64_t));
    EXPECT_EQ(h.independence(), k);
  }
}

TEST(KWiseHashTest, ConstantHashForKOne) {
  Rng rng(11);
  KWiseHash h(1, rng);
  const uint64_t v = h(0);
  for (uint64_t x = 1; x < 50; ++x) EXPECT_EQ(h(x), v);
}

TEST(BucketHashTest, StaysInRange) {
  Rng rng(13);
  BucketHash h(2, 37, rng);
  for (uint64_t x = 0; x < 5000; ++x) {
    EXPECT_LT(h(x), 37u);
  }
}

TEST(BucketHashTest, RoughlyUniformAcrossBuckets) {
  Rng rng(17);
  const uint64_t buckets = 16;
  BucketHash h(2, buckets, rng);
  std::vector<int> counts(buckets, 0);
  const int draws = 32000;
  for (int x = 0; x < draws; ++x) ++counts[h(static_cast<uint64_t>(x))];
  const double expected = static_cast<double>(draws) / buckets;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 60.0);
}

TEST(FastRange61Test, MatchesMultiplyShiftDefinition) {
  // Pins the reduction formula floor(h * range / 2^61) so the bucket layout
  // stays stable across refactors (sketch determinism depends on it).
  EXPECT_EQ(FastRange61(0, 37), 0u);
  EXPECT_EQ(FastRange61(kMersenne61 - 1, 37), 36u);
  const uint64_t h = uint64_t{1} << 60;  // halfway through the domain
  EXPECT_EQ(FastRange61(h, 10), 5u);
  for (uint64_t range : {1ull, 2ull, 37ull, 1024ull}) {
    for (uint64_t x :
         {uint64_t{0}, uint64_t{12345}, (uint64_t{1} << 45) + 17,
          kMersenne61 - 2}) {
      EXPECT_EQ(FastRange61(x, range),
                static_cast<uint64_t>(
                    (static_cast<__uint128_t>(x) * range) >> 61));
      EXPECT_LT(FastRange61(x, range), range);
    }
  }
}

TEST(FastRange61Test, BucketBiasWithinDocumentedBound) {
  // FastRange61 maps [0, 2^61) onto contiguous bucket preimages of size
  // floor(2^61/range) or ceil(2^61/range); over the field [0, 2^61 - 1) the
  // per-bucket probability deviates from 1/range by at most
  // (range + 1) / 2^61.  Verify the preimage-size claim exactly by locating
  // every bucket boundary: bucket b starts at ceil(b * 2^61 / range).
  const uint64_t range = 37;
  const __uint128_t domain = static_cast<__uint128_t>(1) << 61;
  uint64_t prev_start = 0;
  uint64_t min_width = ~uint64_t{0};
  uint64_t max_width = 0;
  for (uint64_t b = 1; b <= range; ++b) {
    const uint64_t start =
        b == range
            ? static_cast<uint64_t>(domain)
            : static_cast<uint64_t>((domain * b + range - 1) / range);
    if (b < range) {
      // The boundary really separates bucket b-1 from bucket b.
      EXPECT_EQ(FastRange61(start - 1, range), b - 1);
      EXPECT_EQ(FastRange61(start, range), b);
    }
    const uint64_t width = start - prev_start;
    min_width = std::min(min_width, width);
    max_width = std::max(max_width, width);
    prev_start = start;
  }
  const uint64_t floor_width = static_cast<uint64_t>(domain / range);
  EXPECT_GE(min_width, floor_width);
  EXPECT_LE(max_width, floor_width + 1);
}

TEST(BucketHashTest, FastRangeDistributionMatchesModuloQuality) {
  // The fastrange switch must not cost statistical quality: a pairwise
  // BucketHash over sequential keys should fill buckets to within a few
  // standard deviations of uniform, same as the modulo reduction it
  // replaced.
  Rng rng(29);
  const uint64_t buckets = 64;
  BucketHash h(2, buckets, rng);
  std::vector<int> counts(buckets, 0);
  const int draws = 1 << 18;
  for (int x = 0; x < draws; ++x) ++counts[h(static_cast<uint64_t>(x))];
  const double expected = static_cast<double>(draws) / buckets;
  const double sd = std::sqrt(expected);
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, 6.0 * sd);
  }
}

TEST(SignHashTest, BalancedSigns) {
  Rng rng(19);
  SignHash s(rng);
  int plus = 0;
  const int draws = 20000;
  for (int x = 0; x < draws; ++x) {
    const int v = s(static_cast<uint64_t>(x));
    ASSERT_TRUE(v == 1 || v == -1);
    if (v == 1) ++plus;
  }
  EXPECT_NEAR(static_cast<double>(plus) / draws, 0.5, 0.02);
}

TEST(SignHashTest, PairwiseProductsUnbiased) {
  // 4-wise independence implies E[s(x)s(y)] = 0 for x != y; estimate the
  // worst pairwise correlation over a few fixed pairs.
  Rng rng(23);
  const int trials = 400;
  const int pairs = 6;
  std::vector<double> sums(pairs, 0.0);
  for (int t = 0; t < trials; ++t) {
    SignHash s(rng);
    for (int p = 0; p < pairs; ++p) {
      sums[p] += s(static_cast<uint64_t>(2 * p)) *
                 s(static_cast<uint64_t>(2 * p + 1));
    }
  }
  for (int p = 0; p < pairs; ++p) {
    EXPECT_NEAR(sums[p] / trials, 0.0, 0.2) << "pair " << p;
  }
}

TEST(BernoulliHashTest, HalfDensity) {
  Rng rng(29);
  BernoulliHash b(rng);
  int ones = 0;
  const int draws = 20000;
  for (int x = 0; x < draws; ++x) {
    if (b(static_cast<uint64_t>(x))) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / draws, 0.5, 0.02);
}

TEST(BernoulliHashTest, PairwiseJointFrequencies) {
  // Pairwise independence: P(b(x)=1, b(y)=1) = 1/4 over the hash draw.
  Rng rng(31);
  const int trials = 4000;
  int joint = 0;
  for (int t = 0; t < trials; ++t) {
    BernoulliHash b(rng);
    if (b(12345) && b(67890)) ++joint;
  }
  EXPECT_NEAR(static_cast<double>(joint) / trials, 0.25, 0.03);
}

// Empirical 2-wise independence of KWiseHash(2): collision probability of
// distinct keys into B buckets should be ~1/B over hash draws.
TEST(KWiseHashTest, PairwiseCollisionProbability) {
  Rng rng(37);
  const uint64_t buckets = 64;
  const int trials = 8000;
  int collisions = 0;
  for (int t = 0; t < trials; ++t) {
    BucketHash h(2, buckets, rng);
    if (h(111) == h(222)) ++collisions;
  }
  EXPECT_NEAR(static_cast<double>(collisions) / trials, 1.0 / buckets,
              0.01);
}

}  // namespace
}  // namespace gstream
