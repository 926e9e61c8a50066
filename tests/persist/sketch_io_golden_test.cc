// Byte-identity pins for the GSKB and GCKP writers.
//
// FNV-1a digests and lengths of SerializeSketch for every SketchKind, of
// two-pass and mixed-kind RecursiveGSum stacks, and of one EncodeCheckpoint
// image with staged updates.  The constants were recorded with the
// original writers, which built every nested blob in its own string and
// checksummed it in a separate pass; they pin that the in-place writer and
// the one-sweep sealing emit exactly the same bytes.  CoalesceGoldenTest
// pins the one- and two-pass OnePassHH/TwoPassHH stacks; these cover the
// remaining kinds and the checkpoint envelope.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/gnp_sketch.h"
#include "core/heavy_hitters.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "core/two_pass_hh.h"
#include "persist/checkpoint.h"
#include "persist/sketch_io.h"
#include "sketch/ams.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "stream/exact.h"

namespace gstream {
namespace {

constexpr uint64_t kSeed = 0x601dULL;

// Independent FNV-1a, so the pins do not lean on the code under test.
uint64_t Digest(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

template <typename SketchT>
void Feed(SketchT& sketch, uint64_t seed = 5, size_t n = 3000) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    sketch.Update(rng.NextUint64() % 2048, static_cast<int64_t>(i % 9) - 3);
  }
}

OnePassHHOptions OnePassOptions() {
  OnePassHHOptions options;
  options.count_sketch = {3, 64};
  options.ams = {8, 3};
  options.candidates = 8;
  return options;
}

TwoPassHHOptions TwoPassOptions() {
  TwoPassHHOptions options;
  options.count_sketch = {3, 64};
  options.candidates = 8;
  return options;
}

GnpSketchOptions GnpOptions() {
  GnpSketchOptions options;
  options.substreams = 8;
  options.trials = 6;
  options.id_bits = 12;
  return options;
}

// Levels cycle through every one-pass GHeavyHitterSketch kind the wire
// format knows (a stack's levels must agree on the pass count).
RecursiveGSum MixedStack(uint64_t seed) {
  Rng rng(seed);
  return RecursiveGSum(
      5,
      [](int level, Rng& r) -> std::unique_ptr<GHeavyHitterSketch> {
        switch (level % 3) {
          case 0:
            return std::make_unique<OnePassHeavyHitter>(OnePassOptions(), r);
          case 1:
            return std::make_unique<GnpHeavyHitter>(GnpOptions(), r);
          default:
            return std::make_unique<ExactHeavyHitterSketch>();
        }
      },
      rng);
}

RecursiveGSum TwoPassStack(uint64_t seed) {
  Rng rng(seed);
  return RecursiveGSum(
      4,
      [](int, Rng& r) {
        return std::make_unique<TwoPassHeavyHitter>(TwoPassOptions(), r);
      },
      rng);
}

void ExpectPinned(const std::string& bytes, size_t size, uint64_t digest) {
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(Digest(bytes), digest);
}

TEST(SketchIoGoldenTest, CountSketch) {
  Rng rng(kSeed);
  CountSketch sketch(CountSketchOptions{3, 64}, rng);
  Feed(sketch);
  ExpectPinned(SerializeSketch(sketch), 1584, 0x07c41ebd919f5bf5ULL);
}

TEST(SketchIoGoldenTest, CountMin) {
  Rng rng(kSeed);
  CountMinSketch sketch(CountMinOptions{3, 64}, rng);
  Feed(sketch);
  ExpectPinned(SerializeSketch(sketch), 1584, 0x4e282961cfb80b33ULL);
}

TEST(SketchIoGoldenTest, Ams) {
  Rng rng(kSeed);
  AmsSketch sketch(AmsOptions{8, 3}, rng);
  Feed(sketch);
  ExpectPinned(SerializeSketch(sketch), 240, 0xcd319525cf98c94cULL);
}

TEST(SketchIoGoldenTest, Gnp) {
  Rng rng(kSeed);
  GnpHeavyHitter sketch(GnpOptions(), rng);
  Feed(sketch);
  ExpectPinned(SerializeSketch(sketch), 5048, 0xc49279b8fa15a14eULL);
}

TEST(SketchIoGoldenTest, ExactFrequency) {
  ExactFrequencySketch sketch;
  Feed(sketch);
  ExpectPinned(SerializeSketch(sketch), 25480, 0x5ab34a6c9f20292eULL);
}

TEST(SketchIoGoldenTest, CountSketchTopK) {
  Rng rng(kSeed);
  CountSketchTopK sketch(CountSketchOptions{3, 64}, 8, rng);
  Feed(sketch);
  ExpectPinned(SerializeSketch(sketch), 1864, 0xad3f8a644234259bULL);
}

TEST(SketchIoGoldenTest, ExactHeavyHitter) {
  ExactHeavyHitterSketch sketch;
  Feed(sketch);
  ExpectPinned(SerializeSketch(sketch), 25520, 0x45f5fcfb2473a25fULL);
}

TEST(SketchIoGoldenTest, OnePassHH) {
  Rng rng(kSeed);
  OnePassHeavyHitter sketch(OnePassOptions(), rng);
  Feed(sketch);
  ExpectPinned(SerializeSketch(sketch), 2152, 0xd82c52f76008e3afULL);
}

TEST(SketchIoGoldenTest, TwoPassHHBothPasses) {
  Rng rng(kSeed);
  TwoPassHeavyHitter sketch(TwoPassOptions(), rng);
  Feed(sketch);
  ExpectPinned(SerializeSketch(sketch), 1916, 0x58db396ea1bea432ULL);
  sketch.AdvancePass();
  Feed(sketch);
  ExpectPinned(SerializeSketch(sketch), 2044, 0xd76cd9adb531ccd0ULL);
}

TEST(SketchIoGoldenTest, HeavyHitterDispatchMatchesSerializeSketch) {
  Rng rng(kSeed);
  GnpHeavyHitter sketch(GnpOptions(), rng);
  Feed(sketch);
  const GHeavyHitterSketch& base = sketch;
  EXPECT_EQ(SerializeHeavyHitter(base), SerializeSketch(sketch));
}

TEST(SketchIoGoldenTest, MixedKindRecursiveStack) {
  RecursiveGSum stack = MixedStack(kSeed);
  Feed(stack);
  ExpectPinned(SerializeSketch(stack), 21576, 0x047e8dde9f2a9dbeULL);
}

TEST(SketchIoGoldenTest, TwoPassRecursiveStack) {
  RecursiveGSum stack = TwoPassStack(kSeed);
  Feed(stack);
  stack.AdvancePass();
  Feed(stack);
  ExpectPinned(SerializeSketch(stack), 9992, 0xa89527c747680f8bULL);
}

TEST(SketchIoGoldenTest, CheckpointImageWithStagedUpdates) {
  RecursiveGSum first = MixedStack(kSeed);
  RecursiveGSum second = MixedStack(kSeed);
  Feed(first, /*seed=*/6, /*n=*/1500);
  Feed(second, /*seed=*/7, /*n=*/900);
  CheckpointImage image;
  image.cursor = 2400;
  image.producer.round_robin_next = 1;
  image.producer.stats.updates_submitted = 2431;
  image.producer.stats.chunks_committed = 5;
  image.producer.stats.producer_stalls = 2;
  image.producer.stats.shard_updates = {1500, 900};
  image.producer.staged = {{{41, -2}, {77, 5}, {1u << 20, 1}}, {}};
  image.shard_blobs = {SerializeSketch(first), SerializeSketch(second)};
  ExpectPinned(EncodeCheckpoint(image), 37136, 0xf5eb571e0ecd0621ULL);
}

}  // namespace
}  // namespace gstream
