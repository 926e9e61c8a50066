// Reason pins for corruption inside *nested* blobs.
//
// A RecursiveGSum blob nests four checksummed regions (stack -> OnePassHH
// -> CountSketchTopK -> CountSketch), and a GCKP image nests one such
// stack per shard.  A plain byte flip is always caught by the outermost
// checksum, so the flat sweeps in sketch_io_test.cc cannot tell which
// region a reader checks first.  These tests also flip and then *re-seal*
// trailers, so that only an inner region (or none) is wrong and the
// reported reason shows the order in which the readers check regions and
// decode fields.  Each sweep pins an FNV-1a digest of every
// (position, mask, mode, LoadError, message) it sees; the constants were
// recorded with readers that hash each region when they open it, and any
// reader must reproduce them exactly.  Every failure must also leave the
// destination bit-unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/gnp_sketch.h"
#include "core/heavy_hitters.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "persist/checkpoint.h"
#include "persist/sketch_io.h"

namespace gstream {
namespace {

constexpr uint64_t kSeed = 0x7e57ULL;

// Independent FNV-1a, so the pins and the re-sealing do not lean on the
// code under test.
uint64_t Fnv(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// Little-endian `bytes`-byte word at `at`.
uint64_t LoadLe(const std::string& b, size_t at, int bytes = 8) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(b[at + i])) << (8 * i);
  }
  return v;
}

void StoreU64(std::string* b, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) (*b)[at + i] = static_cast<char>(v >> (8 * i));
}

// One checksummed region: body [start, end), 8-byte trailer at `end`.
struct Region {
  size_t start;
  size_t end;
};

// Appends the regions of the GSKB blob at [at, at + len) in the order a
// reader opens them (preorder), following the documented payload layouts.
void WalkBlob(const std::string& b, size_t at, size_t len,
              std::vector<Region>* out) {
  out->push_back({at, at + len - 8});
  size_t p = at + 24;  // past the header
  const auto child = [&](size_t length_at) {
    const size_t n = static_cast<size_t>(LoadLe(b, length_at));
    WalkBlob(b, length_at + 8, n, out);
    return length_at + 8 + n;
  };
  switch (static_cast<SketchKind>(LoadLe(b, at + 8, 4))) {
    case SketchKind::kCountSketchTopK:
      child(p + 8);  // after k
      break;
    case SketchKind::kOnePassHH:
      child(child(p));  // tracker, then ams
      break;
    case SketchKind::kExactHeavyHitter:
      child(p);
      break;
    case SketchKind::kRecursiveGSum: {
      const uint64_t levels = LoadLe(b, p + 8);
      p += 16;  // subsampler fingerprint, level count
      for (uint64_t l = 0; l < levels; ++l) p = child(p + 4);  // kind tag
      break;
    }
    default:
      break;  // flat kinds
  }
}

std::vector<Region> WalkSketch(const std::string& b) {
  std::vector<Region> out;
  WalkBlob(b, 0, b.size(), &out);
  return out;
}

// The regions of a GCKP image: the whole file, then each shard's blob.
std::vector<Region> WalkCheckpoint(const std::string& b) {
  std::vector<Region> out = {{0, b.size() - 8}};
  const uint64_t shards = LoadLe(b, 8);
  size_t p = 56 + 8 * shards;  // header, shard update counts
  for (uint64_t s = 0; s < shards; ++s) p += 8 + 16 * LoadLe(b, p);
  for (uint64_t s = 0; s < shards; ++s) {
    const size_t n = static_cast<size_t>(LoadLe(b, p));
    WalkBlob(b, p + 8, n, &out);
    p += 8 + n;
  }
  return out;
}

// Recomputes the trailers of `regions`, innermost first, so each encloses
// the already re-sealed trailers of the regions inside it.
void Reseal(std::string* b, std::vector<Region> regions) {
  std::sort(regions.begin(), regions.end(),
            [](const Region& x, const Region& y) { return x.start > y.start; });
  for (const Region& r : regions) {
    StoreU64(b, r.end,
             Fnv(std::string_view(*b).substr(r.start, r.end - r.start)));
  }
}

// The regions whose body holds `pos`, outermost first.
std::vector<Region> Enclosing(const std::vector<Region>& regions,
                              size_t pos) {
  std::vector<Region> out;
  for (const Region& r : regions) {
    if (r.start <= pos && pos < r.end) out.push_back(r);
  }
  return out;
}

// How a sweep repairs trailers after its flip.
enum class Mode {
  kPlain,        // none: the outermost checksum must catch it
  kResealAll,    // every enclosing region: only the decoders can object
  kResealOuter,  // all but the innermost: only that region's checksum fails
};

std::string FlipAt(const std::string& blob, const std::vector<Region>& regions,
                   size_t pos, unsigned char mask, Mode mode) {
  std::string out = blob;
  out[pos] = static_cast<char>(out[pos] ^ mask);
  std::vector<Region> enclosing = Enclosing(regions, pos);
  if (mode == Mode::kPlain) return out;
  if (mode == Mode::kResealOuter && !enclosing.empty()) enclosing.pop_back();
  Reseal(&out, enclosing);
  return out;
}

// What a sweep saw: an FNV-1a digest of every observation, and how many
// loads ended with each reason (the readable half of the pin).
struct SweepRecord {
  uint64_t digest = Fnv("");
  std::map<std::string, size_t> reasons;

  void Observe(size_t pos, unsigned char mask, Mode mode,
               const LoadStatus& status) {
    digest = Fnv(std::to_string(pos) + ":" + std::to_string(mask) + ":" +
                     std::to_string(static_cast<int>(mode)) + ":" +
                     LoadErrorName(status.error) + ":" + status.message + "\n",
                 digest);
    ++reasons[LoadErrorName(status.error)];
  }

  std::string Tally() const {
    std::string out;
    for (const auto& [name, n] : reasons) {
      out += name + "=" + std::to_string(n) + " ";
    }
    return out;
  }
};

OnePassHHOptions SmallOnePass() {
  OnePassHHOptions options;
  options.count_sketch = {2, 16};
  options.ams = {4, 2};
  options.candidates = 4;
  return options;
}

// Three levels, three reader shapes: OnePassHH (4-deep nesting), Gnp
// (flat) and ExactHH (a nested exact-frequency blob).
RecursiveGSum MixedStack() {
  Rng rng(kSeed);
  return RecursiveGSum(
      2,  // levels 0..2
      [](int level, Rng& r) -> std::unique_ptr<GHeavyHitterSketch> {
        switch (level) {
          case 0:
            return std::make_unique<OnePassHeavyHitter>(SmallOnePass(), r);
          case 1: {
            GnpSketchOptions gnp;
            gnp.substreams = 4;
            gnp.trials = 2;
            gnp.id_bits = 6;
            return std::make_unique<GnpHeavyHitter>(gnp, r);
          }
          default:
            return std::make_unique<ExactHeavyHitterSketch>();
        }
      },
      rng);
}

RecursiveGSum OnePassStack() {
  Rng rng(kSeed);
  return RecursiveGSum(
      1,  // levels 0..1
      [](int, Rng& r) {
        return std::make_unique<OnePassHeavyHitter>(SmallOnePass(), r);
      },
      rng);
}

template <typename SketchT>
void Feed(SketchT& sketch, uint64_t seed, size_t n) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    sketch.Update(rng.NextUint64() % 64, static_cast<int64_t>(i % 5) - 1);
  }
}

std::string FedBlob(RecursiveGSum stack, uint64_t seed) {
  Feed(stack, seed, 200);
  return SerializeSketch(stack);
}

// Loads `bytes` into `dst`, asserting a failure leaves it bit-unchanged.
LoadStatus LoadChecked(std::string_view bytes, RecursiveGSum* dst) {
  const std::string before = SerializeSketch(*dst);
  const LoadStatus status = DeserializeSketch(bytes, dst);
  if (!status.ok()) {
    EXPECT_FALSE(status.message.empty());
    EXPECT_EQ(SerializeSketch(*dst), before)
        << "failed load mutated the destination: " << status.message;
  }
  return status;
}

// What RestoreIngestor does with an image, minus the engine: decode, then
// load every shard blob, naming the shard that fails.
LoadStatus LoadImage(std::string_view bytes,
                     std::vector<RecursiveGSum>* dsts) {
  CheckpointImage image;
  image.cursor = 777;  // sentinel: a failed decode must not touch it
  LoadStatus status = DecodeCheckpoint(bytes, &image);
  if (!status.ok()) {
    EXPECT_EQ(image.cursor, 777u) << "failed decode mutated the image";
    EXPECT_TRUE(image.shard_blobs.empty());
    return status;
  }
  for (size_t s = 0; s < image.shard_blobs.size(); ++s) {
    status = LoadChecked(image.shard_blobs[s], &(*dsts)[s]);
    if (!status.ok()) {
      status.message = "shard " + std::to_string(s) + ": " + status.message;
      return status;
    }
  }
  return status;
}

std::string TwoShardImage() {
  CheckpointImage image;
  image.cursor = 4096;
  image.producer.round_robin_next = 1;
  image.producer.stats.updates_submitted = 4100;
  image.producer.stats.chunks_committed = 2;
  image.producer.stats.shard_updates = {2050, 2050};
  image.producer.staged = {{{5, 1}}, {{9, -2}, {11, 3}}};
  image.shard_blobs = {FedBlob(OnePassStack(), 21),
                       FedBlob(OnePassStack(), 22)};
  return EncodeCheckpoint(image);
}

// ---------------------------------------------------------------------------
// Digest sweeps: every position, masks 0x01 and 0x80, three re-seal modes.
// ---------------------------------------------------------------------------

template <typename Load>
SweepRecord SweepFlips(const std::string& bytes,
                       const std::vector<Region>& regions, Load load) {
  SweepRecord record;
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const unsigned char mask : {0x01, 0x80}) {
      for (const Mode mode :
           {Mode::kPlain, Mode::kResealAll, Mode::kResealOuter}) {
        const LoadStatus status = load(FlipAt(bytes, regions, pos, mask, mode));
        EXPECT_TRUE(mode != Mode::kPlain || !status.ok())
            << "unrepaired flip at " << pos << " was accepted";
        record.Observe(pos, mask, mode, status);
      }
    }
  }
  return record;
}

TEST(SketchIoNestedTest, RecursiveStackFlipSweepReasonsArePinned) {
  const std::string blob = FedBlob(MixedStack(), 3);
  RecursiveGSum dst = MixedStack();
  const SweepRecord record =
      SweepFlips(blob, WalkSketch(blob), [&dst](const std::string& bytes) {
        return LoadChecked(bytes, &dst);
      });
  EXPECT_EQ(blob.size(), 1444u);
  EXPECT_EQ(record.Tally(),
            "bad_magic=136 checksum_mismatch=5841 fingerprint_mismatch=144 "
            "geometry_mismatch=144 ok=2112 truncated=135 type_mismatch=88 "
            "version_skew=64 ");
  EXPECT_EQ(record.digest, 7306122728888367565ULL);
}

TEST(SketchIoNestedTest, CheckpointImageFlipSweepReasonsArePinned) {
  const std::string image = TwoShardImage();
  std::vector<RecursiveGSum> dsts;
  dsts.push_back(OnePassStack());
  dsts.push_back(OnePassStack());
  const SweepRecord record = SweepFlips(
      image, WalkCheckpoint(image),
      [&dsts](const std::string& bytes) { return LoadImage(bytes, &dsts); });
  EXPECT_EQ(image.size(), 2848u);
  EXPECT_EQ(record.Tally(),
            "bad_magic=312 checksum_mismatch=11560 fingerprint_mismatch=320 "
            "geometry_mismatch=352 ok=3840 trailing_data=3 truncated=373 "
            "type_mismatch=176 version_skew=152 ");
  EXPECT_EQ(record.digest, 16523367867095660936ULL);
}

// ---------------------------------------------------------------------------
// Hand-placed corruptions in a two-level OnePassHH stack.  Regions in the
// order a reader opens them:
//   0 stack, 1 level-0 OnePassHH, 2 its TopK, 3 its CountSketch, 4 its AMS,
//   5 level-1 OnePassHH, 6 its TopK, 7 its CountSketch, 8 its AMS.
// ---------------------------------------------------------------------------

class SketchIoNestedEditTest : public testing::Test {
 protected:
  void SetUp() override {
    blob_ = FedBlob(OnePassStack(), 5);
    regions_ = WalkSketch(blob_);
    ASSERT_EQ(regions_.size(), 9u);
  }

  // XORs `mask` into the byte at `pos` and re-seals every region whose body
  // holds it, except region `keep_bad` (when given), whose trailer stays
  // stale.
  void Edit(size_t pos, unsigned char mask, int keep_bad = -1) {
    blob_[pos] = static_cast<char>(blob_[pos] ^ mask);
    std::vector<Region> reseal;
    for (size_t i = 0; i < regions_.size(); ++i) {
      const Region& r = regions_[i];
      if (static_cast<int>(i) != keep_bad && r.start <= pos && pos < r.end) {
        reseal.push_back(r);
      }
    }
    Reseal(&blob_, reseal);
  }

  // A byte of the counter array of CountSketch region `cs`.
  size_t CounterByte(int cs) const { return regions_[cs].start + 24 + 16 + 3; }
  // A byte of the fingerprint in region `r`'s header.
  size_t FingerprintByte(int r) const { return regions_[r].start + 16; }

  void ExpectFails(LoadError error, const std::string& message) {
    RecursiveGSum dst = OnePassStack();
    const LoadStatus status = LoadChecked(blob_, &dst);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(LoadErrorName(status.error), std::string(LoadErrorName(error)))
        << status.message;
    EXPECT_EQ(status.message, message);
  }

  std::string blob_;
  std::vector<Region> regions_;
};

const char kChecksum[] = "whole-blob checksum mismatch (corrupt bytes)";

std::string AtLevel(int level, const char* what) {
  return "level " + std::to_string(level) + ": " + what;
}
const char kFingerprint[] =
    "sketch fingerprint differs from the destination's (different seed or "
    "randomness)";

TEST_F(SketchIoNestedEditTest, ResealedCountSketchPayload) {
  Edit(CounterByte(7), 0x04, /*keep_bad=*/7);
  ExpectFails(LoadError::kChecksumMismatch, AtLevel(1, kChecksum));
}

TEST_F(SketchIoNestedEditTest, ResealedTopKCandidates) {
  // First byte of the first candidate: past the CountSketch child's
  // trailer and the candidate count.
  Edit(regions_[3].end + 8 + 8, 0x01, /*keep_bad=*/2);
  ExpectFails(LoadError::kChecksumMismatch, AtLevel(0, kChecksum));
}

TEST_F(SketchIoNestedEditTest, OnePassChecksumPrecedesItsFingerprint) {
  Edit(FingerprintByte(5), 0x10, /*keep_bad=*/5);
  ExpectFails(LoadError::kChecksumMismatch, AtLevel(1, kChecksum));
}

TEST_F(SketchIoNestedEditTest, FullyResealedOnePassFingerprint) {
  Edit(FingerprintByte(5), 0x10);
  ExpectFails(LoadError::kFingerprintMismatch,
              AtLevel(1, kFingerprint));
}

TEST_F(SketchIoNestedEditTest, FirstOpenedBadRegionIsReported) {
  Edit(CounterByte(7), 0x04, /*keep_bad=*/7);
  Edit(CounterByte(3), 0x04, /*keep_bad=*/3);
  ExpectFails(LoadError::kChecksumMismatch, AtLevel(0, kChecksum));
}

TEST_F(SketchIoNestedEditTest, EarlierDecodeErrorBeatsLaterBadRegion) {
  Edit(CounterByte(7), 0x04, /*keep_bad=*/7);
  Edit(FingerprintByte(2), 0x02);
  ExpectFails(LoadError::kFingerprintMismatch,
              AtLevel(0, kFingerprint));
}

TEST_F(SketchIoNestedEditTest, EarlierBadRegionBeatsLaterDecodeError) {
  Edit(FingerprintByte(6), 0x02);
  Edit(CounterByte(3), 0x04, /*keep_bad=*/3);
  ExpectFails(LoadError::kChecksumMismatch, AtLevel(0, kChecksum));
}

TEST_F(SketchIoNestedEditTest, RootDecodeErrorBeatsInnerBadRegion) {
  Edit(CounterByte(3), 0x04, /*keep_bad=*/3);
  Edit(regions_[0].start + 24, 0x01);  // subsampler fingerprint
  ExpectFails(LoadError::kFingerprintMismatch, kFingerprint);
}

TEST_F(SketchIoNestedEditTest, ResealedChildVersionEdit) {
  Edit(regions_[7].start + 4, 0x03);  // version 1 -> 2
  ExpectFails(LoadError::kVersionSkew,
              "level 1: format version 2, this build reads 1");
}

TEST_F(SketchIoNestedEditTest, ChildVersionEditBehindStaleTrailer) {
  Edit(regions_[7].start + 4, 0x03, /*keep_bad=*/7);
  ExpectFails(LoadError::kChecksumMismatch, AtLevel(1, kChecksum));
}

TEST_F(SketchIoNestedEditTest, ResealedChildKindEdits) {
  Edit(regions_[2].start + 8, 0x06 ^ 0x02);  // topk -> count_min
  ExpectFails(LoadError::kTypeMismatch,
              "level 0: blob holds count_min, destination is "
              "count_sketch_topk");
}

TEST_F(SketchIoNestedEditTest, ResealedAmsKindEdit) {
  Edit(regions_[8].start + 8, 0x03 ^ 0x01);  // ams -> count_sketch
  ExpectFails(LoadError::kTypeMismatch,
              "level 1: blob holds count_sketch, destination is ams");
}

TEST_F(SketchIoNestedEditTest, ResealedLevelKindTag) {
  // The u32 kind tag the stack writes before level 1's length prefix.
  Edit(regions_[5].start - 8 - 4, 0x08 ^ 0x04);  // one_pass_hh -> gnp
  ExpectFails(LoadError::kTypeMismatch,
              "level 1 holds gnp, destination level is one_pass_hh");
}

}  // namespace
}  // namespace gstream
