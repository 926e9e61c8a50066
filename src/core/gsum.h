// GSumEstimator: the library's top-level entry point for (g, eps)-SUM.
//
// Composes the machinery of the paper end-to-end: a recursive sketch
// (Theorem 13) over per-level heavy-hitter sketches -- Algorithm 2 for one
// pass, Algorithm 1 for two passes -- with independent repetitions medianed
// for amplification, and the envelope H(M) computed from the function
// itself.  Space is reported honestly via SpaceBytes().
//
// Typical use:
//
//   GSumOptions opts;
//   opts.passes = 1;
//   GSumEstimator est(MakeX2Log(), /*domain=*/1 << 16, opts);
//   double approx = est.Process(stream);
//
// The sketch state is linear and independent of g up to the candidate
// decode, so one processed sketch can be decoded under many functions via
// EstimateForG -- the observation behind the maximum-likelihood
// application (paper §1.1.1, implemented in core/mle.h).

#ifndef GSTREAM_CORE_GSUM_H_
#define GSTREAM_CORE_GSUM_H_

#include <memory>
#include <vector>

#include "core/recursive_sketch.h"
#include "engine/ingest_engine.h"
#include "gfunc/catalog.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"

namespace gstream {

struct GSumOptions {
  // 1 (Algorithm 2 per level) or 2 (Algorithm 1 per level).
  int passes = 1;
  // Cover accuracy driving the one-pass pruning interval.
  double epsilon = 0.2;
  // CountSketch geometry per level.
  size_t cs_rows = 5;
  size_t cs_buckets = 512;
  // Candidate ids tracked per level.
  size_t candidates = 48;
  // Subsampling depth; -1 derives ceil(log2 domain) - floor(log2
  // candidates), clamped to >= 1, so the deepest level is fully coverable.
  int levels = -1;
  // Independent repetitions whose estimates are medianed (success
  // amplification; keep odd).
  size_t repetitions = 5;
  // AMS sketch geometry (one-pass pruning only).
  AmsOptions ams;
  // H(M) envelope; -1 computes it from g over [0, envelope_domain].
  double h_envelope = -1.0;
  int64_t envelope_domain = int64_t{1} << 16;
  // Probe magnitudes per sign in the pruning test.
  size_t probe_points = 24;
  uint64_t seed = 0x9b1e;
  // When true, Process() shards each pass through the ingestion engine:
  // every shard runs a Replicate() of the *entire* stack of repetitions --
  // all recursive levels included -- on its partition of the stream
  // (`ingest_policy`: hash-by-item or round-robin chunks), and the stacks
  // fold at Close() through the per-level fingerprint-guarded merges.
  // Parallelism therefore scales with `ingest_shards` and the host's
  // cores, independent of the repetition count.  The merged per-level
  // *linear* state is bit-identical to the sequential batched pass for any
  // policy and shard count; the estimate is additionally bit-identical
  // whenever no level prunes candidates (see docs/engine.md on the
  // candidate-union merge for the pruning-regime caveat).  Incremental
  // Update/UpdateBatch callers not going through Process() are
  // unaffected; Process()'s fresh-estimator precondition is *checked* on
  // this path, because replicating stacks that already hold state would
  // multiply that state by the shard count at the fold.
  bool parallel_ingest = false;
  size_t ingest_shards = 4;
  PartitionPolicy ingest_policy = PartitionPolicy::kRoundRobinChunks;
};

class GSumEstimator {
 public:
  // `domain` is the universe size n of the streams to be processed.
  GSumEstimator(GFunctionPtr g, uint64_t domain, const GSumOptions& options);

  int passes() const { return options_.passes; }
  int levels() const { return reps_.front().levels(); }
  double h_envelope() const { return h_envelope_; }

  // Incremental interface: feed every update once per pass, calling
  // AdvancePass() between the passes of a two-pass configuration.
  // UpdateBatch is the hot path (Process drives it in
  // kStreamBatchSize chunks); it coalesces the chunk once (CoalesceBatch)
  // and fans the coalesced chunk out to every repetition's batched
  // recursive sketch, which then skips its own coalescing.
  void Update(ItemId item, int64_t delta);
  void UpdateBatch(const gstream::Update* updates, size_t n);
  void AdvancePass();

  // Median-of-repetitions estimate under the bound function.
  double Estimate() const { return EstimateForG(*g_); }

  // Decodes the shared sketch under a different function.  Covers carrying
  // frequencies are re-evaluated under `other`; valid because the sketch
  // state is g-independent.
  double EstimateForG(const GFunction& other) const;

  // Convenience: runs the configured number of passes over `stream` and
  // returns Estimate().  Must be called on a freshly constructed estimator
  // (enforced when parallel_ingest shards the stacks: pre-fed state would
  // be replicated into every shard and multiplied at the fold).
  double Process(const Stream& stream);

  size_t SpaceBytes() const;

  // Repetition r's recursive stack (r < options.repetitions), exposed so
  // tests can pin the estimator's sketch state byte for byte.
  const RecursiveGSum& repetition(size_t r) const { return reps_[r]; }

 private:
  GFunctionPtr g_;
  GSumOptions options_;
  double h_envelope_ = 1.0;
  std::vector<RecursiveGSum> reps_;
  // Reusable CoalesceBatch output shared by every repetition's feed.
  std::vector<gstream::Update> coalesced_;
  // Updates fed through the incremental interface; guards Process()'s
  // fresh-estimator precondition on the sharded path.
  uint64_t updates_fed_ = 0;
};

}  // namespace gstream

#endif  // GSTREAM_CORE_GSUM_H_
