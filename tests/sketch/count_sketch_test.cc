#include "sketch/count_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "stream/exact.h"
#include "stream/generators.h"
#include "util/stats.h"

namespace gstream {
namespace {

TEST(CountSketchTest, SingleItemExactRecovery) {
  Rng rng(1);
  CountSketch cs(CountSketchOptions{5, 64}, rng);
  cs.Update(42, 1000);
  EXPECT_EQ(cs.Estimate(42), 1000);
}

TEST(CountSketchTest, DeletionsCancelExactly) {
  Rng rng(2);
  CountSketch cs(CountSketchOptions{5, 64}, rng);
  cs.Update(7, 500);
  cs.Update(7, -500);
  EXPECT_EQ(cs.Estimate(7), 0);
}

TEST(CountSketchTest, UntouchedItemEstimatesNearZero) {
  Rng rng(3);
  CountSketch cs(CountSketchOptions{7, 512}, rng);
  for (ItemId i = 0; i < 100; ++i) cs.Update(i, 10);
  // Item 5000 was never updated; its estimate is pure collision noise,
  // bounded by sqrt(F2/b) * O(1) = sqrt(100*100/512) ~ 4.4.
  EXPECT_LE(std::llabs(cs.Estimate(5000)), 20);
}

TEST(CountSketchTest, ErrorBoundHolndsOnZipfWorkload) {
  Rng rng(4);
  const Workload w = MakeZipfWorkload(1 << 14, 2000, 1.1, 50000,
                                      StreamShapeOptions{}, rng);
  CountSketch cs(CountSketchOptions{7, 1024}, rng);
  ProcessStream(cs, w.stream);
  const double f2 = ExactMoment(w.frequencies, 2.0);
  const double bound = 3.0 * std::sqrt(f2 / 1024.0);
  size_t violations = 0;
  for (const auto& [item, value] : w.frequencies) {
    if (std::llabs(cs.Estimate(item) - value) > bound) ++violations;
  }
  // Per-item failure probability is 2^{-Omega(rows)}; allow a thin tail.
  EXPECT_LE(violations, w.frequencies.size() / 50);
}

TEST(CountSketchTest, MoreBucketsShrinkError) {
  Rng rng(5);
  const Workload w = MakeUniformWorkload(1 << 12, 3000, 1, 100,
                                         StreamShapeOptions{}, rng);
  double errors[2];
  size_t idx = 0;
  for (const size_t buckets : {64u, 4096u}) {
    Rng local(99);
    CountSketch cs(CountSketchOptions{5, buckets}, local);
    ProcessStream(cs, w.stream);
    std::vector<double> errs;
    for (const auto& [item, value] : w.frequencies) {
      errs.push_back(
          static_cast<double>(std::llabs(cs.Estimate(item) - value)));
    }
    errors[idx++] = Mean(errs);
  }
  EXPECT_LT(errors[1], errors[0] / 2.0);
}

TEST(CountSketchTest, DeterministicGivenSeed) {
  const Workload w = [&] {
    Rng rng(6);
    return MakeUniformWorkload(1 << 10, 500, 1, 50, StreamShapeOptions{},
                               rng);
  }();
  Rng r1(123), r2(123);
  CountSketch a(CountSketchOptions{5, 256}, r1);
  CountSketch b(CountSketchOptions{5, 256}, r2);
  ProcessStream(a, w.stream);
  ProcessStream(b, w.stream);
  for (const auto& [item, value] : w.frequencies) {
    EXPECT_EQ(a.Estimate(item), b.Estimate(item));
  }
}

TEST(CountSketchTest, F2EstimateWithinFactorTwo) {
  Rng rng(7);
  const Workload w = MakeZipfWorkload(1 << 12, 1000, 1.0, 10000,
                                      StreamShapeOptions{}, rng);
  CountSketch cs(CountSketchOptions{9, 2048}, rng);
  ProcessStream(cs, w.stream);
  const double truth = ExactMoment(w.frequencies, 2.0);
  EXPECT_GT(cs.EstimateF2(), truth / 2.0);
  EXPECT_LT(cs.EstimateF2(), truth * 2.0);
}

TEST(CountSketchTest, SpaceBytesScalesWithGeometry) {
  Rng rng(8);
  CountSketch small(CountSketchOptions{2, 32}, rng);
  CountSketch big(CountSketchOptions{8, 512}, rng);
  EXPECT_GT(big.SpaceBytes(), small.SpaceBytes() * 16);
  EXPECT_GE(small.SpaceBytes(), 2 * 32 * sizeof(int64_t));
}

// The batched decode against the per-item query and an independent median,
// for rows 1-9 (even counts take the upper middle), with one or two
// buckets so rows tie, and counters driven to INT64_MAX and INT64_MIN.
// Row j of a sketch is reproduced by a one-row sketch drawn from the same
// Rng position (KWiseHashBank draws row by row), so each item's sorted row
// values -- and their element at rows / 2 -- come without the sketch's own
// median.  600 probes span two decode blocks and repeat items.
TEST(CountSketchTest, EstimateAllIntoMatchesEstimateAndRowMedian) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  // Item 5 wraps from INT64_MAX to INT64_MIN.
  std::vector<Update> ups = {{1, kMax}, {2, kMin}, {3, 1},
                             {4, -1},   {5, kMax}, {5, 1}};
  Rng data(77);
  for (int i = 0; i < 300; ++i) {
    ups.push_back(Update{data.UniformUint64(40),
                         static_cast<int64_t>(data.UniformInt(-3, 3))});
  }
  std::vector<ItemId> probes;
  for (ItemId i = 0; i < 600; ++i) probes.push_back(i % 45);

  for (size_t rows = 1; rows <= 9; ++rows) {
    for (const size_t buckets : {size_t{1}, size_t{2}, size_t{37}}) {
      Rng rng(1000 + rows);
      CountSketch cs(CountSketchOptions{rows, buckets}, rng);
      Rng row_rng(1000 + rows);
      std::vector<CountSketch> row_sketches;
      for (size_t j = 0; j < rows; ++j) {
        row_sketches.emplace_back(CountSketchOptions{1, buckets}, row_rng);
      }
      for (const Update& u : ups) {
        cs.Update(u.item, u.delta);
        for (CountSketch& row : row_sketches) row.Update(u.item, u.delta);
      }
      std::vector<int64_t> batched(probes.size());
      cs.EstimateAllInto(probes.data(), probes.size(), batched.data());
      for (size_t i = 0; i < probes.size(); ++i) {
        std::vector<int64_t> row_values;
        for (const CountSketch& row : row_sketches) {
          row_values.push_back(row.Estimate(probes[i]));
        }
        std::sort(row_values.begin(), row_values.end());
        const int64_t want = row_values[rows / 2];
        EXPECT_EQ(cs.Estimate(probes[i]), want)
            << rows << " rows, " << buckets << " buckets, item " << probes[i];
        EXPECT_EQ(batched[i], want)
            << rows << " rows, " << buckets << " buckets, item " << probes[i];
      }
      std::vector<double> row_f2;
      for (const CountSketch& row : row_sketches) {
        row_f2.push_back(row.EstimateF2());
      }
      std::sort(row_f2.begin(), row_f2.end());
      EXPECT_EQ(cs.EstimateF2(), row_f2[rows / 2])
          << rows << " rows, " << buckets << " buckets";
    }
  }
}

TEST(CountSketchTopKTest, FindsPlantedHeavyHitter) {
  Rng rng(9);
  ItemId heavy = 0;
  const Workload w = MakePlantedHeavyHitterWorkload(
      1 << 12, 500, 20, 100000, StreamShapeOptions{}, rng, &heavy);
  CountSketchTopK topk(CountSketchOptions{5, 512}, 10, rng);
  ProcessStream(topk, w.stream);
  const auto top = topk.TopK();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].first, heavy);
  EXPECT_NEAR(static_cast<double>(top[0].second), 100000.0, 1000.0);
}

TEST(CountSketchTopKTest, FindsNegativeHeavyHitter) {
  Rng rng(10);
  CountSketchTopK topk(CountSketchOptions{5, 256}, 4, rng);
  for (ItemId i = 0; i < 100; ++i) topk.Update(i, 3);
  topk.Update(777, -50000);
  const auto top = topk.TopK();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].first, 777u);
  EXPECT_LT(top[0].second, -40000);
}

TEST(CountSketchTopKTest, CapsCandidateCount) {
  Rng rng(11);
  const size_t k = 8;
  CountSketchTopK topk(CountSketchOptions{5, 256}, k, rng);
  for (ItemId i = 0; i < 10000; ++i) topk.Update(i, 1 + (i % 7));
  EXPECT_LE(topk.TopK().size(), k);
}

TEST(CountSketchTopKTest, TopKSortedByMagnitude) {
  Rng rng(12);
  CountSketchTopK topk(CountSketchOptions{7, 512}, 5, rng);
  topk.Update(1, 100);
  topk.Update(2, -5000);
  topk.Update(3, 300);
  const auto top = topk.TopK();
  ASSERT_GE(top.size(), 3u);
  EXPECT_EQ(top[0].first, 2u);
  EXPECT_EQ(top[1].first, 3u);
  EXPECT_EQ(top[2].first, 1u);
}

TEST(CountSketchDeathTest, RejectsZeroRows) {
  Rng rng(13);
  EXPECT_DEATH(CountSketch(CountSketchOptions{0, 8}, rng), "GSTREAM_CHECK");
}

}  // namespace
}  // namespace gstream
