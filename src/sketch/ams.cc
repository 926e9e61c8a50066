#include "sketch/ams.h"

#include <algorithm>
#include <vector>

#include "util/bit.h"
#include "util/logging.h"
#include "util/simd/simd_dispatch.h"

namespace gstream {

AmsSketch::AmsSketch(const AmsOptions& options, Rng& rng)
    : options_(options),
      sign_bank_(/*k=*/4, std::max<size_t>(options.group_size * options.groups, 1),
                 rng) {
  GSTREAM_CHECK_GE(options.group_size, 1u);
  GSTREAM_CHECK_GE(options.groups, 1u);
  const size_t total = options.group_size * options.groups;
  sums_.assign(total, 0);
  GSTREAM_DCHECK(IsCacheLineAligned(sums_.data()));
  uint64_t fp = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < total; ++i) {
    fp = (fp ^ (sign_bank_.EvalRow(i, ReduceToField(1)) & 1)) *
         0x100000001b3ULL;
    fp = (fp ^ (sign_bank_.EvalRow(i, ReduceToField(0x9e3779b9)) & 1)) *
         0x100000001b3ULL;
  }
  hash_fingerprint_ = fp;
}

void AmsSketch::MergeFrom(const AmsSketch& other) {
  GSTREAM_CHECK_EQ(options_.group_size, other.options_.group_size);
  GSTREAM_CHECK_EQ(options_.groups, other.options_.groups);
  GSTREAM_CHECK_EQ(hash_fingerprint_, other.hash_fingerprint_);
  for (size_t i = 0; i < sums_.size(); ++i) {
    sums_[i] = WrapAdd(sums_[i], other.sums_[i]);
  }
}

void AmsSketch::Update(ItemId item, int64_t delta) {
  uint64_t xm, x2, x3;
  FieldPowers3Lazy(item, &xm, &x2, &x3);
  const uint64_t* c0 = sign_bank_.DegreeCoeffs(0);
  const uint64_t* c1 = sign_bank_.DegreeCoeffs(1);
  const uint64_t* c2 = sign_bank_.DegreeCoeffs(2);
  const uint64_t* c3 = sign_bank_.DegreeCoeffs(3);
  for (size_t i = 0; i < sums_.size(); ++i) {
    const uint64_t s = Eval4Wise(c0[i], c1[i], c2[i], c3[i], xm, x2, x3);
    sums_[i] = WrapAdd(sums_[i], SignByLowBit(delta, s));
  }
}

void AmsSketch::UpdateBatch(const gstream::Update* updates, size_t n) {
  // Per L1-resident block: the per-item field powers are computed once,
  // then one dispatched call sweeps the whole sign bank with estimators in
  // the SIMD lanes and each item's powers broadcast -- the cost per item
  // is the same for a 1-item level batch as for a full block.  Wraparound
  // addition mod 2^64 is associative, so sums_ is bit-identical to the
  // sequential loop under any tier.
  const simd::SimdOps& ops = simd::Ops();
  alignas(64) uint64_t xm[simd::kSimdBlock];
  alignas(64) uint64_t x2[simd::kSimdBlock];
  alignas(64) uint64_t x3[simd::kSimdBlock];
  alignas(64) int64_t delta[simd::kSimdBlock];
  for (size_t base = 0; base < n; base += simd::kSimdBlock) {
    const size_t m = std::min(simd::kSimdBlock, n - base);
    ops.prepare_batch(updates + base, m, xm, x2, x3, delta);
    ops.eval4_sign_accumulate(sign_bank_.DegreeCoeffs(0), sums_.size(), xm,
                              x2, x3, delta, m, sums_.data());
  }
}

double AmsSketch::EstimateF2() const {
  // Local scratch keeps this const query safe for concurrent readers;
  // `groups` is O(log 1/delta), so it nearly always fits on the stack.
  constexpr size_t kInlineGroups = 32;
  double inline_means[kInlineGroups] = {};
  std::vector<double> heap_means;
  double* means = inline_means;
  if (options_.groups > kInlineGroups) {
    heap_means.resize(options_.groups);
    means = heap_means.data();
  }
  for (size_t grp = 0; grp < options_.groups; ++grp) {
    double mean = 0.0;
    for (size_t e = 0; e < options_.group_size; ++e) {
      const double z =
          static_cast<double>(sums_[grp * options_.group_size + e]);
      mean += z * z;
    }
    means[grp] = mean / static_cast<double>(options_.group_size);
  }
  std::sort(means, means + options_.groups);
  return means[options_.groups / 2];
}

size_t AmsSketch::SpaceBytes() const {
  return sums_.size() * sizeof(int64_t) + sign_bank_.SpaceBytes();
}

}  // namespace gstream
