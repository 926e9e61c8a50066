#include "core/gsum.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/one_pass_hh.h"
#include "core/two_pass_hh.h"
#include "engine/sharded_ingestor.h"
#include "gfunc/envelope.h"
#include "util/bit.h"
#include "util/logging.h"

namespace gstream {
namespace {

// The unit a shard replica owns under whole-stack sharding: every
// repetition's recursive stack.  A chunk routed to a shard is coalesced
// once and the coalesced chunk flows through all of that shard's stacks
// (each sees it already coalesced and skips its own pass), so merging
// RepetitionStacks rep-by-rep reproduces each repetition's sequential
// state.
struct RepetitionStack {
  std::vector<RecursiveGSum> reps;
  std::vector<Update> coalesced;  // reusable CoalesceBatch output

  void UpdateBatch(const Update* updates, size_t n) {
    const std::span<const Update> chunk = Coalesced(updates, n, &coalesced);
    for (RecursiveGSum& rep : reps) rep.UpdateBatch(chunk.data(), chunk.size());
  }

  void MergeFrom(const RepetitionStack& other) {
    GSTREAM_CHECK_EQ(reps.size(), other.reps.size());
    for (size_t r = 0; r < reps.size(); ++r) {
      reps[r].MergeFrom(other.reps[r]);
    }
  }
};

}  // namespace

GSumEstimator::GSumEstimator(GFunctionPtr g, uint64_t domain,
                             const GSumOptions& options)
    : g_(std::move(g)), options_(options) {
  GSTREAM_CHECK(g_ != nullptr);
  GSTREAM_CHECK(options.passes == 1 || options.passes == 2);
  GSTREAM_CHECK_GE(options.repetitions, 1u);
  GSTREAM_CHECK_GE(domain, 1u);

  h_envelope_ = options.h_envelope;
  if (h_envelope_ < 0.0) {
    h_envelope_ = HEnvelope(EvaluateTable(*g_, options.envelope_domain));
  }
  GSTREAM_CHECK(h_envelope_ >= 1.0);

  int levels = options.levels;
  if (levels < 0) {
    const int domain_bits = Log2Ceil(std::max<uint64_t>(domain, 2));
    const int candidate_bits =
        Log2Floor(std::max<uint64_t>(options_.candidates, 2));
    levels = std::max(1, domain_bits - candidate_bits);
  }

  GHeavyHitterFactory factory;
  if (options.passes == 1) {
    OnePassHHOptions hh;
    hh.count_sketch = CountSketchOptions{options.cs_rows, options.cs_buckets};
    hh.ams = options.ams;
    hh.candidates = options.candidates;
    hh.epsilon = options.epsilon;
    hh.h_envelope = h_envelope_;
    hh.probe_points = options.probe_points;
    factory = [hh](int /*level*/, Rng& rng) {
      return std::make_unique<OnePassHeavyHitter>(hh, rng);
    };
  } else {
    TwoPassHHOptions hh;
    hh.count_sketch = CountSketchOptions{options.cs_rows, options.cs_buckets};
    hh.candidates = options.candidates;
    factory = [hh](int /*level*/, Rng& rng) {
      return std::make_unique<TwoPassHeavyHitter>(hh, rng);
    };
  }

  coalesced_.reserve(kStreamBatchSize);
  Rng root(options.seed);
  reps_.reserve(options.repetitions);
  for (size_t r = 0; r < options.repetitions; ++r) {
    Rng child = root.Fork();
    reps_.emplace_back(levels, factory, child);
  }
}

void GSumEstimator::Update(ItemId item, int64_t delta) {
  ++updates_fed_;
  for (RecursiveGSum& rep : reps_) rep.Update(item, delta);
}

void GSumEstimator::UpdateBatch(const gstream::Update* updates, size_t n) {
  updates_fed_ += n;
  const std::span<const gstream::Update> chunk =
      Coalesced(updates, n, &coalesced_);
  for (RecursiveGSum& rep : reps_) rep.UpdateBatch(chunk.data(), chunk.size());
}

void GSumEstimator::AdvancePass() {
  for (RecursiveGSum& rep : reps_) rep.AdvancePass();
}

double GSumEstimator::EstimateForG(const GFunction& other) const {
  std::vector<double> estimates;
  estimates.reserve(reps_.size());
  for (const RecursiveGSum& rep : reps_) {
    estimates.push_back(rep.Estimate(other));
  }
  std::sort(estimates.begin(), estimates.end());
  return estimates[estimates.size() / 2];
}

double GSumEstimator::Process(const Stream& stream) {
  // Whole-stack sharding replicates the stacks' *current* state into every
  // shard and sums the replicas at the fold, so state fed before Process()
  // would be counted once per shard -- enforce the fresh-estimator
  // precondition where violating it silently corrupts the estimate.  (The
  // engine-fed passes below bypass UpdateBatch, so this stays 0 across a
  // sharded run's own passes.)
  if (options_.parallel_ingest) GSTREAM_CHECK_EQ(updates_fed_, 0u);
  auto one_pass = [&] {
    if (!options_.parallel_ingest) {
      stream.ForEachBatch(kStreamBatchSize,
                          [&](const gstream::Update* ups, size_t n) {
                            UpdateBatch(ups, n);
                          });
      return;
    }
    // Whole-stack sharding: each shard replicates the current state of
    // every repetition's stack -- fresh (all-zero) in pass 1, frozen
    // candidate tables with zeroed tabulation in pass 2 -- runs the entire
    // recursion on its stream partition, and the stacks fold at Close()
    // via the per-level fingerprint-guarded merges.
    IngestEngineOptions engine_options;
    engine_options.shards = std::max<size_t>(options_.ingest_shards, 1);
    engine_options.policy = options_.ingest_policy;
    ShardedIngestor<RepetitionStack> ingest(
        engine_options, [this](size_t /*shard*/) {
          RepetitionStack replica;
          replica.reps.reserve(reps_.size());
          for (const RecursiveGSum& rep : reps_) {
            replica.reps.push_back(rep.Replicate());
          }
          return replica;
        });
    ingest.Open();
    ingest.SubmitStream(stream);
    reps_ = std::move(ingest.Close().reps);
  };
  one_pass();
  for (int p = 1; p < options_.passes; ++p) {
    AdvancePass();
    one_pass();
  }
  return Estimate();
}

size_t GSumEstimator::SpaceBytes() const {
  size_t bytes = 0;
  for (const RecursiveGSum& rep : reps_) bytes += rep.SpaceBytes();
  return bytes;
}

}  // namespace gstream
