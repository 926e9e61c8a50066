// The AMS F2 sketch (Alon, Matias, Szegedy 1996), used by the one-pass
// heavy-hitter algorithm (Algorithm 2 of the paper) to bound the
// CountSketch error via sqrt(F2-hat).
//
// Median of `groups` means of `group_size` atomic estimators; each atomic
// estimator is Z = sum_i s(i) v_i with a 4-wise sign hash, and E[Z^2] = F2,
// Var[Z^2] <= 2 F2^2.  With group_size = O(1/eps^2) and groups = O(log
// 1/delta) the estimate is within (1 +- eps) F2 with probability 1 - delta.
//
// The sign hashes live in one structure-of-arrays KWiseHashBank and the
// batched update kernel makes one dispatched SIMD call (util/simd/) per
// block: estimators occupy the lanes with their coefficients loaded
// straight from the bank, each item's shared field powers are broadcast,
// and the signed deltas accumulate in registers -- so a block of a few
// items (the deep levels of the g-sum stack) costs no more per item than
// a full one.  Updates are allocation-free (stack-array blocking);
// EstimateF2 keeps its median scratch local, so concurrent queries on a
// quiesced sketch are safe.

#ifndef GSTREAM_SKETCH_AMS_H_
#define GSTREAM_SKETCH_AMS_H_

#include <cstdint>

#include "sketch/linear_sketch.h"
#include "util/aligned.h"
#include "util/hash.h"
#include "util/random.h"

namespace gstream {

namespace persist {
struct SketchSerde;  // durable wire format (persist/sketch_io.h)
}  // namespace persist

struct AmsOptions {
  size_t group_size = 16;  // estimators averaged per group (~1/eps^2)
  size_t groups = 5;       // groups medianed (~log 1/delta)
};

class AmsSketch : public LinearSketch {
 public:
  AmsSketch(const AmsOptions& options, Rng& rng);

  void Update(ItemId item, int64_t delta) override;
  void UpdateBatch(const gstream::Update* updates, size_t n) override;

  // Median-of-means F2 estimate.
  double EstimateF2() const;

  // Adds another sketch's sums into this one; both must come from
  // equal-state Rngs (fingerprint-checked), mirroring
  // CountSketch::MergeFrom.
  void MergeFrom(const AmsSketch& other);

  size_t SpaceBytes() const override;

  // Raw estimator sums (group_size * groups, 64-byte-aligned base -- see
  // util/aligned.h); used by the batch/single equivalence tests.
  const AlignedI64Vector& sums() const { return sums_; }

  // The hash-coefficient fingerprint that guards MergeFrom; see
  // CountSketch::Fingerprint.
  uint64_t Fingerprint() const { return hash_fingerprint_; }

 private:
  friend struct persist::SketchSerde;

  AmsOptions options_;
  KWiseHashBank sign_bank_;  // group_size * groups rows, 4-wise
  AlignedI64Vector sums_;    // Z per estimator, 64B-aligned base
  uint64_t hash_fingerprint_ = 0;
};

}  // namespace gstream

#endif  // GSTREAM_SKETCH_AMS_H_
