// Heavy-hitter covers and the sketch interface shared by the paper's
// Algorithms 1 and 2, the g_np sketch, and the recursive sketch that
// consumes them.
//
// Definition 12: a (g, lambda, eps)-cover is a set of (item, weight) pairs
// that (1) contains every (g, lambda)-heavy hitter and (2) reports each
// weight within (1 +- eps) of g(|v_i|).  Our cover entries additionally
// carry the frequency estimate when the algorithm has one, so a single
// sketch can be decoded under many different g (the paper's observation in
// §1.1.1 that the sketch form is independent of g).
//
// The interface is mergeable and batch-first: every concrete heavy-hitter
// sketch processes updates through the inherited UpdateBatch hot path, can
// deep-copy itself (Clone) so a frozen state can be replicated across
// engine shards, and can fold a same-seed replica that processed a
// disjoint shard of its (sub)stream back into itself (MergeFrom).  This is
// what lets the recursive g-sum stack of Theorem 13 ride the sharded
// ingestion engine whole -- per-level sketches merge, so whole stacks
// merge.  Merges are guarded by Fingerprint(), mirroring the
// hash-coefficient fingerprint the linear sketches check in MergeFrom:
// two sketches merge only if they drew identical randomness (same-seed
// construction).

#ifndef GSTREAM_CORE_HEAVY_HITTERS_H_
#define GSTREAM_CORE_HEAVY_HITTERS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gfunc/gfunction.h"
#include "sketch/linear_sketch.h"
#include "stream/exact.h"
#include "stream/stream.h"
#include "util/logging.h"
#include "util/random.h"

namespace gstream {

namespace persist {
struct SketchSerde;  // durable wire format (persist/sketch_io.h)
}  // namespace persist

struct GCoverEntry {
  ItemId item = 0;
  // Frequency estimate (exact for the two-pass algorithm).  Meaningful only
  // when has_frequency is true; the g_np sketch recovers g-values directly.
  int64_t frequency = 0;
  // Approximation of g(|v_item|).
  double g_value = 0.0;
  bool has_frequency = true;
};

using GCover = std::vector<GCoverEntry>;

// A (g, lambda, eps, delta)-heavy-hitter streaming algorithm.  The driver
// feeds every update of the (sub)stream through UpdateBatch (or Update)
// once per pass (inherited from LinearSketch), calling AdvancePass()
// between passes, then reads Cover().
class GHeavyHitterSketch : public LinearSketch {
 public:
  // Number of passes this algorithm needs (1 or 2).
  virtual int passes() const = 0;

  // Transitions from pass p to pass p+1.
  virtual void AdvancePass() = 0;

  // Returns the cover after the final pass, with weights evaluated under
  // `g`.  Implementations bound to a specific function (g_np) may ignore
  // `g`; see their documentation.
  virtual GCover Cover(const GFunction& g) const = 0;

  // Identifies the randomness this sketch drew at construction (hash
  // coefficients, sampling seeds).  Two sketches built from equal-state
  // Rngs -- and only such sketches -- report equal fingerprints;
  // implementations compute it by probing the drawn hash functions, like
  // the linear sketches' merge guards.  Structures without randomness
  // (exact tabulators) return 0.
  virtual uint64_t Fingerprint() const = 0;

  // Folds `other` -- a same-type, same-fingerprint replica that processed
  // a disjoint shard of the current pass's (sub)stream -- into this
  // sketch.  Implementations check the dynamic type and the fingerprint
  // (GSTREAM_CHECK) and delegate to their typed merge; after the merge
  // this sketch decodes as if it had processed both shards itself.
  virtual void MergeFrom(const GHeavyHitterSketch& other) = 0;

  // Deep copy, preserving both the drawn randomness and the current state.
  // Replicating a freshly constructed (or frozen-between-passes) sketch
  // across engine shards and merging the replicas at close is the
  // engine's replicate -> ingest -> merge pattern.
  virtual std::unique_ptr<GHeavyHitterSketch> Clone() const = 0;
};

// Factory used by the recursive sketch to instantiate one heavy-hitter
// sketch per subsampling level.
using GHeavyHitterFactory =
    std::function<std::unique_ptr<GHeavyHitterSketch>(int level, Rng& rng)>;

// Test-only reference implementation: tabulates the exact frequency vector
// of the substream (linear space!) through ExactFrequencySketch and returns
// everything as the cover.  Used to validate the recursive estimator in
// isolation from CountSketch noise; riding the batched, mergeable exact
// tabulator means even the reference implementation shards exactly.
class ExactHeavyHitterSketch : public GHeavyHitterSketch {
 public:
  ExactHeavyHitterSketch() = default;

  int passes() const override { return 1; }
  void Update(ItemId item, int64_t delta) override {
    freq_.Update(item, delta);
  }
  void UpdateBatch(const gstream::Update* updates, size_t n) override {
    freq_.UpdateBatch(updates, n);
  }
  void AdvancePass() override {}

  // Entries in ascending item order, so the cover -- and the recursive
  // estimate summed over it -- depends only on the frequency vector, not
  // on the hash map's insertion history (a deserialized or differently
  // fed sketch with equal bytes decodes bit-identically).
  GCover Cover(const GFunction& g) const override {
    GCover cover;
    const FrequencyMap freq = freq_.Frequencies();
    cover.reserve(freq.size());
    for (const auto& [item, value] : freq) {
      cover.push_back(GCoverEntry{item, value, g.ValueAbs(value), true});
    }
    std::sort(cover.begin(), cover.end(),
              [](const GCoverEntry& a, const GCoverEntry& b) {
                return a.item < b.item;
              });
    return cover;
  }

  uint64_t Fingerprint() const override { return 0; }  // no hashing

  void MergeFrom(const GHeavyHitterSketch& other) override {
    const auto* o = dynamic_cast<const ExactHeavyHitterSketch*>(&other);
    GSTREAM_CHECK(o != nullptr);
    freq_.MergeFrom(o->freq_);
  }

  std::unique_ptr<GHeavyHitterSketch> Clone() const override {
    return std::make_unique<ExactHeavyHitterSketch>(*this);
  }

  size_t SpaceBytes() const override { return freq_.SpaceBytes(); }

 private:
  friend struct persist::SketchSerde;

  ExactFrequencySketch freq_;
};

}  // namespace gstream

#endif  // GSTREAM_CORE_HEAVY_HITTERS_H_
