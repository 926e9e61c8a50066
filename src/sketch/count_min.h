// Count-Min sketch (Cormode, Muthukrishnan 2005): the standard baseline
// frequency estimator we compare CountSketch against in the sketch
// micro-benchmarks (experiment E9).
//
// r x b counters with pairwise bucket hashes held in a structure-of-arrays
// KWiseHashBank; the batched update kernel runs through the dispatched
// SIMD layer (util/simd/) with the same blocked hash/reduce/scatter
// structure as CountSketch, and the per-update path uses the specialized
// Eval2Wise reduction with the row coefficients hoisted out of the loop.
// Queries keep their scratch local, so concurrent queries on a quiesced
// sketch are safe.  In the insertion-only model
// EstimateMin overestimates by at most F1/b with probability 1-2^{-r}; in
// the general turnstile model EstimateMedian is the appropriate decode.

#ifndef GSTREAM_SKETCH_COUNT_MIN_H_
#define GSTREAM_SKETCH_COUNT_MIN_H_

#include <cstdint>

#include "sketch/linear_sketch.h"
#include "util/aligned.h"
#include "util/hash.h"
#include "util/random.h"

namespace gstream {

namespace persist {
struct SketchSerde;  // durable wire format (persist/sketch_io.h)
}  // namespace persist

struct CountMinOptions {
  size_t rows = 5;
  size_t buckets = 256;
};

class CountMinSketch : public LinearSketch {
 public:
  CountMinSketch(const CountMinOptions& options, Rng& rng);

  void Update(ItemId item, int64_t delta) override;
  void UpdateBatch(const gstream::Update* updates, size_t n) override;

  // Min-of-rows decode (valid upper bound in the insertion-only model).
  int64_t EstimateMin(ItemId item) const;

  // Median-of-rows decode (turnstile-safe).
  int64_t EstimateMedian(ItemId item) const;

  // Adds another sketch's counters; both must come from equal-state Rngs
  // (fingerprint-checked), as in CountSketch::MergeFrom.
  void MergeFrom(const CountMinSketch& other);

  size_t SpaceBytes() const override;

  // Raw counter state (rows * buckets, row-major, 64-byte-aligned base --
  // see util/aligned.h); used by the batch/single equivalence tests.
  const AlignedI64Vector& counters() const { return counters_; }

  // The hash-coefficient fingerprint that guards MergeFrom; see
  // CountSketch::Fingerprint.
  uint64_t Fingerprint() const { return hash_fingerprint_; }

 private:
  friend struct persist::SketchSerde;

  CountMinOptions options_;
  KWiseHashBank bucket_bank_;  // one row each, 2-wise
  AlignedI64Vector counters_;  // rows * buckets, row-major, 64B-aligned
  uint64_t hash_fingerprint_ = 0;
};

}  // namespace gstream

#endif  // GSTREAM_SKETCH_COUNT_MIN_H_
