// Chunk coalescing (CoalesceBatch) and the consumers that rely on it: the
// helper's contract, raw-vs-coalesced equivalence of the top-k tracker,
// mod-2^64 wraparound agreement of the linear sketches, and golden byte
// pins of whole g-sum stacks fed chunks full of duplicates.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gsum.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "core/two_pass_hh.h"
#include "gfunc/catalog.h"
#include "persist/sketch_io.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "stream/stream.h"
#include "util/random.h"

namespace gstream {
namespace {

constexpr uint64_t kDomain = uint64_t{1} << 12;
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

// A seeded turnstile stream whose kStreamBatchSize chunks repeat items
// heavily (ids skewed toward 0) and carry +d/-d pairs that cancel inside
// a chunk.
Stream DuplicateHeavyStream(uint64_t seed, size_t length) {
  Stream stream(kDomain);
  Rng rng(seed);
  while (stream.length() < length) {
    const ItemId item = rng.UniformUint64(1 + rng.UniformUint64(400));
    const int64_t magnitude = 1 + static_cast<int64_t>(rng.UniformUint64(5));
    if (rng.UniformUint64(16) == 0) {
      stream.Append(item, magnitude);
      stream.Append(item, -magnitude);
      continue;
    }
    stream.Append(item, rng.UniformUint64(4) == 0 ? -magnitude : magnitude);
  }
  return stream;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

bool SameUpdates(const std::vector<Update>& a, const std::vector<Update>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item || a[i].delta != b[i].delta) return false;
  }
  return true;
}

TEST(CoalesceBatchTest, SortsSumsAndKeepsZeroNetItems) {
  const std::vector<Update> chunk = {{9, 4},  {3, 1}, {9, -1}, {7, 5},
                                     {3, 2},  {7, -5}, {0, 1}, {9, 2},
                                     {UINT64_MAX, 3}};
  std::vector<Update> out = {{42, 42}};  // stale contents are replaced
  CoalesceBatch(chunk.data(), chunk.size(), &out);
  const std::vector<Update> want = {
      {0, 1}, {3, 3}, {7, 0}, {9, 5}, {UINT64_MAX, 3}};
  EXPECT_TRUE(SameUpdates(out, want));
  EXPECT_TRUE(IsCoalesced(out.data(), out.size()));
  EXPECT_FALSE(IsCoalesced(chunk.data(), chunk.size()));
}

TEST(CoalesceBatchTest, StrictlyIncreasingOutputOnRandomChunks) {
  const Stream stream = DuplicateHeavyStream(11, 4 * kStreamBatchSize);
  std::vector<Update> out;
  stream.ForEachBatch(kStreamBatchSize, [&](const Update* ups, size_t n) {
    CoalesceBatch(ups, n, &out);
    ASSERT_TRUE(IsCoalesced(out.data(), out.size()));
    // Every distinct input item appears exactly once, with its summed delta.
    for (const Update& u : out) {
      int64_t sum = 0;
      for (size_t i = 0; i < n; ++i) {
        if (ups[i].item == u.item) sum += ups[i].delta;
      }
      EXPECT_EQ(u.delta, sum) << "item " << u.item;
    }
    size_t distinct = 0;
    for (size_t i = 0; i < n; ++i) {
      bool seen = false;
      for (size_t j = 0; j < i && !seen; ++j) seen = ups[j].item == ups[i].item;
      distinct += seen ? 0 : 1;
    }
    EXPECT_EQ(out.size(), distinct);
    EXPECT_LT(out.size(), n);  // the stream really has in-chunk duplicates
  });
}

TEST(CoalesceBatchTest, CoalescedInputIsUnchangedAndNotCopied) {
  const std::vector<Update> chunk = {{1, 3}, {2, 0}, {5, -4}, {6, 1}};
  std::vector<Update> out;
  CoalesceBatch(chunk.data(), chunk.size(), &out);
  EXPECT_TRUE(SameUpdates(out, chunk));
  std::vector<Update> scratch;
  const std::span<const Update> view =
      Coalesced(chunk.data(), chunk.size(), &scratch);
  EXPECT_EQ(view.data(), chunk.data());
  EXPECT_EQ(view.size(), chunk.size());
  EXPECT_TRUE(scratch.empty());
  EXPECT_TRUE(IsCoalesced(nullptr, 0));
  CoalesceBatch(nullptr, 0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(CoalesceBatchTest, DeltasWrapModTwoToThe64) {
  const std::vector<Update> chunk = {
      {5, kMax}, {5, kMax}, {9, kMin / 2}, {9, kMin / 2}, {11, kMin},
      {11, kMax}, {11, 1}};
  std::vector<Update> out;
  CoalesceBatch(chunk.data(), chunk.size(), &out);
  const std::vector<Update> want = {{5, -2}, {9, kMin}, {11, 0}};
  EXPECT_TRUE(SameUpdates(out, want));
}

void ExpectSameTracker(const CountSketchTopK& a, const CountSketchTopK& b) {
  EXPECT_EQ(a.sketch().counters(), b.sketch().counters());
  EXPECT_EQ(a.CandidateItems(), b.CandidateItems());
  EXPECT_EQ(a.TopK(), b.TopK());
}

TEST(CoalesceTopKTest, RawAndCoalescedFeedsAgree) {
  const CountSketchOptions geometry{3, 64};
  Rng rng_raw(5), rng_coalesced(5);
  CountSketchTopK raw(geometry, /*k=*/6, rng_raw);
  CountSketchTopK coalesced(geometry, /*k=*/6, rng_coalesced);
  const Stream stream = DuplicateHeavyStream(12, 16 * kStreamBatchSize);
  std::vector<Update> scratch;
  stream.ForEachBatch(kStreamBatchSize, [&](const Update* ups, size_t n) {
    raw.UpdateBatch(ups, n);
    CoalesceBatch(ups, n, &scratch);
    coalesced.UpdateBatch(scratch.data(), scratch.size());
    ExpectSameTracker(raw, coalesced);
  });
}

TEST(CoalesceTopKTest, ZeroNetItemIsStillRefreshed) {
  const CountSketchOptions geometry{3, 64};
  Rng rng_raw(6), rng_coalesced(6);
  CountSketchTopK raw(geometry, /*k=*/4, rng_raw);
  CountSketchTopK coalesced(geometry, /*k=*/4, rng_coalesced);
  // Item 7 nets to zero inside the chunk; the raw feed refreshes it, so
  // the coalesced feed must too (it enters the candidate table).
  const std::vector<Update> chunk = {{3, 2}, {7, 9}, {1, 1}, {7, -9}, {3, 1}};
  std::vector<Update> scratch;
  CoalesceBatch(chunk.data(), chunk.size(), &scratch);
  ASSERT_EQ(scratch.size(), 3u);
  raw.UpdateBatch(chunk.data(), chunk.size());
  coalesced.UpdateBatch(scratch.data(), scratch.size());
  ExpectSameTracker(raw, coalesced);
  const std::vector<ItemId> items = coalesced.CandidateItems();
  EXPECT_NE(std::find(items.begin(), items.end(), ItemId{7}), items.end());
}

// Counters are defined mod 2^64: a chunk whose per-item deltas sum past
// INT64_MAX or to INT64_MIN must leave the Update loop, the raw batch and
// the coalesced batch with identical counters (and, under UBSan, no
// signed overflow on any of the three paths).
TEST(CoalesceWraparoundTest, LinearSketchesAgreeAcrossFeeds) {
  const std::vector<Update> chunk = {
      {5, kMax},  {9, kMin / 2}, {5, kMax}, {11, kMin}, {9, kMin / 2},
      {11, kMax}, {5, 3},        {11, 1},   {13, kMin}, {13, kMin}};
  std::vector<Update> coalesced;
  CoalesceBatch(chunk.data(), chunk.size(), &coalesced);

  const CountSketchOptions geometry{5, 16};
  Rng r1(7), r2(7), r3(7);
  CountSketch loop(geometry, r1), batch(geometry, r2), merged(geometry, r3);
  for (const Update& u : chunk) loop.Update(u.item, u.delta);
  batch.UpdateBatch(chunk.data(), chunk.size());
  merged.UpdateBatch(coalesced.data(), coalesced.size());
  EXPECT_EQ(loop.counters(), batch.counters());
  EXPECT_EQ(loop.counters(), merged.counters());
  // Merging the wrapped sketch into itself doubles every counter mod 2^64.
  CountSketch twice = batch;
  twice.MergeFrom(batch);
  for (size_t i = 0; i < twice.counters().size(); ++i) {
    EXPECT_EQ(static_cast<uint64_t>(twice.counters()[i]),
              2 * static_cast<uint64_t>(batch.counters()[i]));
  }

  const AmsOptions ams_geometry{4, 3};
  Rng a1(8), a2(8), a3(8);
  AmsSketch ams_loop(ams_geometry, a1), ams_batch(ams_geometry, a2),
      ams_merged(ams_geometry, a3);
  for (const Update& u : chunk) ams_loop.Update(u.item, u.delta);
  ams_batch.UpdateBatch(chunk.data(), chunk.size());
  ams_merged.UpdateBatch(coalesced.data(), coalesced.size());
  EXPECT_EQ(ams_loop.sums(), ams_batch.sums());
  EXPECT_EQ(ams_loop.sums(), ams_merged.sums());
  AmsSketch ams_twice = ams_batch;
  ams_twice.MergeFrom(ams_batch);
  for (size_t i = 0; i < ams_twice.sums().size(); ++i) {
    EXPECT_EQ(static_cast<uint64_t>(ams_twice.sums()[i]),
              2 * static_cast<uint64_t>(ams_batch.sums()[i]));
  }
}

// --- Golden pins -----------------------------------------------------------
//
// FNV-1a of SerializeSketch for whole stacks fed DuplicateHeavyStream in
// kStreamBatchSize chunks.  The constants were recorded before chunk
// coalescing existed (every sketch then hashed each raw update), so they
// pin that coalescing leaves every counter, candidate and byte unchanged.

constexpr size_t kGoldenLength = 24 * kStreamBatchSize + 77;
constexpr uint64_t kGoldenStreamSeed = 2024;

GSumOptions GoldenOptions(int passes) {
  GSumOptions options;
  options.passes = passes;
  options.cs_rows = 3;
  options.cs_buckets = 64;
  options.candidates = 8;
  options.repetitions = 3;
  options.seed = 0x5eed;
  return options;
}

RecursiveGSum GoldenStack(int passes) {
  Rng rng(0xc0a1e5ce);
  if (passes == 1) {
    OnePassHHOptions hh;
    hh.count_sketch = CountSketchOptions{3, 64};
    hh.ams = AmsOptions{8, 3};
    hh.candidates = 8;
    hh.h_envelope = 4.0;
    return RecursiveGSum(
        6,
        [hh](int, Rng& r) {
          return std::make_unique<OnePassHeavyHitter>(hh, r);
        },
        rng);
  }
  TwoPassHHOptions hh;
  hh.count_sketch = CountSketchOptions{3, 64};
  hh.candidates = 8;
  return RecursiveGSum(
      6,
      [hh](int, Rng& r) { return std::make_unique<TwoPassHeavyHitter>(hh, r); },
      rng);
}

uint64_t EstimatorDigest(const GSumEstimator& est, size_t repetitions) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t r = 0; r < repetitions; ++r) {
    h = Fnv1a(SerializeSketch(est.repetition(r)), h);
  }
  return h;
}

TEST(CoalesceGoldenTest, OnePassStackBytes) {
  const Stream stream = DuplicateHeavyStream(kGoldenStreamSeed, kGoldenLength);
  RecursiveGSum stack = GoldenStack(1);
  stream.ForEachBatch(kStreamBatchSize, [&](const Update* ups, size_t n) {
    stack.UpdateBatch(ups, n);
  });
  EXPECT_EQ(Fnv1a(SerializeSketch(stack)), 0xe053cb38e072d2a1ULL);
}

TEST(CoalesceGoldenTest, TwoPassStackBytes) {
  const Stream stream = DuplicateHeavyStream(kGoldenStreamSeed, kGoldenLength);
  RecursiveGSum stack = GoldenStack(2);
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) stack.AdvancePass();
    stream.ForEachBatch(kStreamBatchSize, [&](const Update* ups, size_t n) {
      stack.UpdateBatch(ups, n);
    });
  }
  EXPECT_EQ(Fnv1a(SerializeSketch(stack)), 0xf6688df52435fe85ULL);
}

TEST(CoalesceGoldenTest, EstimatorSequentialBytes) {
  const Stream stream = DuplicateHeavyStream(kGoldenStreamSeed, kGoldenLength);
  const GSumOptions options = GoldenOptions(1);
  GSumEstimator est(MakeX2Log(), kDomain, options);
  est.Process(stream);
  EXPECT_EQ(EstimatorDigest(est, options.repetitions), 0xfc411285957c5a2bULL);
}

TEST(CoalesceGoldenTest, EstimatorParallelIngestBytes) {
  const Stream stream = DuplicateHeavyStream(kGoldenStreamSeed, kGoldenLength);
  GSumOptions options = GoldenOptions(1);
  options.parallel_ingest = true;
  options.ingest_shards = 3;
  options.ingest_policy = PartitionPolicy::kRoundRobinChunks;
  GSumEstimator est(MakeX2Log(), kDomain, options);
  est.Process(stream);
  EXPECT_EQ(EstimatorDigest(est, options.repetitions), 0xe7e811afe29eaf39ULL);
}

}  // namespace
}  // namespace gstream
