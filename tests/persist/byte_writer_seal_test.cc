// Model test for ByteWriter's one-sweep sealing.  Seeded random region
// trees -- nesting depth 0 to 12 (deeper than one unrolled chain group),
// empty payloads, adjacent siblings, regions opening at the same offset,
// single-child chains, framed and unframed children -- are written through
// the writer and sealed.  An independent reference zeroes every trailer
// and re-seals innermost-first with Checksum64, one region at a time; the
// sealed bytes must match it exactly, and every back-patched child length
// must frame its child.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "persist/sketch_io.h"
#include "util/random.h"

namespace gstream {
namespace {

using persist::ByteWriter;

struct Region {
  size_t start = 0;
  size_t trailer = 0;
};

struct Frame {
  size_t length_at = 0;
  size_t end = 0;
};

uint64_t LoadU64(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

class TreeWriter {
 public:
  TreeWriter(uint64_t seed, int max_depth)
      : rng_(seed), max_depth_(max_depth) {}

  // Writes a forest of top-level regions with loose bytes between them.
  void WriteForest() {
    const int roots = 1 + static_cast<int>(rng_.NextUint64() % 3);
    for (int r = 0; r < roots; ++r) {
      Payload();
      Node(1, /*on_spine=*/r == 0);
    }
    Payload();
  }

  ByteWriter& writer() { return w_; }
  // Regions in close order, which is innermost-first.
  const std::vector<Region>& closed() const { return closed_; }
  const std::vector<Frame>& frames() const { return frames_; }

 private:
  // Payload lengths favor 0 and short runs, with an occasional long one.
  void Payload() {
    const uint64_t pick = rng_.NextUint64() % 8;
    const size_t n = pick < 3 ? 0 : pick < 7 ? pick * 3 : 200 + pick;
    std::string bytes(n, '\0');
    for (char& c : bytes) c = static_cast<char>(rng_.NextUint64());
    w_.PutBytes(bytes);
  }

  // One region at `depth`; the spine child keeps descending to max_depth_,
  // so every tree reaches its drawn depth.  Off the spine, branching stops
  // once the node budget is spent, which keeps deep trees small.
  void Node(int depth, bool on_spine) {
    ++nodes_;
    Region region;
    region.start = w_.size();
    w_.OpenRegion();
    if (rng_.NextUint64() % 2 == 0) Payload();
    if (depth < max_depth_ && (on_spine || nodes_ < kNodeBudget)) {
      const bool single = rng_.NextUint64() % 3 == 0;
      const int children =
          single ? 1 : static_cast<int>(rng_.NextUint64() % 4);
      for (int c = 0; c < children || (on_spine && c == 0); ++c) {
        Child(depth + 1, on_spine && c == 0);
        if (rng_.NextUint64() % 2 == 0) Payload();
      }
    }
    w_.CloseRegion();
    region.trailer = w_.size() - 8;
    closed_.push_back(region);
  }

  // Framed children sit behind a back-patched length; unframed ones open
  // right where the parent's bytes stop, so marks can share an offset.
  void Child(int depth, bool on_spine) {
    if (rng_.NextUint64() % 4 == 0) {
      Node(depth, on_spine);
      return;
    }
    const size_t length_at = w_.BeginChild();
    Node(depth, on_spine);
    w_.EndChild(length_at);
    frames_.push_back({length_at, w_.size()});
  }

  static constexpr int kNodeBudget = 120;

  Rng rng_;
  int max_depth_;
  int nodes_ = 0;
  ByteWriter w_;
  std::vector<Region> closed_;
  std::vector<Frame> frames_;
};

std::string ReferenceSeal(std::string bytes,
                          const std::vector<Region>& innermost_first) {
  for (const Region& r : innermost_first) {
    for (size_t i = 0; i < 8; ++i) bytes[r.trailer + i] = '\0';
  }
  for (const Region& r : innermost_first) {
    const uint64_t sum = persist::Checksum64(
        std::string_view(bytes).substr(r.start, r.trailer - r.start));
    for (int i = 0; i < 8; ++i) {
      bytes[r.trailer + i] = static_cast<char>(sum >> (8 * i));
    }
  }
  return bytes;
}

TEST(SketchIoSealTest, RandomRegionTreesMatchInnermostFirstReference) {
  size_t regions = 0;
  for (uint64_t seed = 1; seed <= 390; ++seed) {
    const int max_depth = static_cast<int>(seed % 13);  // 0..12
    TreeWriter tree(seed, max_depth);
    if (max_depth > 0) tree.WriteForest();
    const std::string sealed = tree.writer().Seal();
    const std::string reference = ReferenceSeal(sealed, tree.closed());
    ASSERT_EQ(sealed.size(), reference.size());
    ASSERT_TRUE(sealed == reference)
        << "seed " << seed << " depth " << max_depth << ": first difference at "
        << std::mismatch(sealed.begin(), sealed.end(), reference.begin())
                   .first -
               sealed.begin();
    for (const Region& r : tree.closed()) {
      ASSERT_EQ(LoadU64(sealed, r.trailer),
                persist::Checksum64(std::string_view(sealed).substr(
                    r.start, r.trailer - r.start)))
          << "seed " << seed;
    }
    for (const Frame& f : tree.frames()) {
      ASSERT_EQ(LoadU64(sealed, f.length_at), f.end - f.length_at - 8)
          << "seed " << seed;
    }
    regions += tree.closed().size();
  }
  EXPECT_GT(regions, 1000u);
}

TEST(SketchIoSealTest, EmptyRegionsAndRegionFreeBytes) {
  ByteWriter w;
  w.PutU32(7);
  w.OpenRegion();
  w.CloseRegion();
  w.OpenRegion();
  w.OpenRegion();
  w.CloseRegion();
  w.CloseRegion();
  const std::string sealed = w.Seal();
  ASSERT_EQ(sealed.size(), 4u + 8 + 16);
  EXPECT_EQ(LoadU64(sealed, 4), persist::Checksum64(""));
  EXPECT_EQ(LoadU64(sealed, 12), persist::Checksum64(""));
  EXPECT_EQ(LoadU64(sealed, 20),
            persist::Checksum64(std::string_view(sealed).substr(12, 8)));

  ByteWriter plain;
  plain.PutU64(0x0123456789abcdefULL);
  EXPECT_EQ(LoadU64(plain.Seal(), 0), 0x0123456789abcdefULL);
}

}  // namespace
}  // namespace gstream
