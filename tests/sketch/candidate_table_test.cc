// The flat candidate table and the top-k tracker built on it, checked
// against std::map reference models over seeded random operation
// sequences (ids 0 and UINT64_MAX included).

#include "sketch/candidate_table.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/count_sketch.h"
#include "util/random.h"

namespace gstream {
namespace {

using Model = std::map<ItemId, int64_t>;

// Ids drawn from a small pool so inserts collide with live entries often;
// the extremes of the id range are always in play.
ItemId DrawItem(Rng& rng) {
  switch (rng.UniformUint64(8)) {
    case 0: return 0;
    case 1: return UINT64_MAX;
    case 2: return UINT64_MAX - rng.UniformUint64(4);
    default: return rng.UniformUint64(200) * 0x10000;  // same low bits
  }
}

void ExpectMatches(const CandidateTable& table, const Model& model) {
  ASSERT_EQ(table.size(), model.size());
  using Entries = std::vector<std::pair<ItemId, int64_t>>;
  Entries entries(table.begin(), table.end());
  std::sort(entries.begin(), entries.end());
  EXPECT_EQ(entries, Entries(model.begin(), model.end()));
}

TEST(CandidateTableTest, RandomOpsMatchMapModel) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    CandidateTable table;
    if (seed % 2 == 0) table.Reserve(17);
    Model model;
    for (int op = 0; op < 4000; ++op) {
      const uint64_t kind = rng.UniformUint64(100);
      if (kind < 85) {
        // Overwrites of live items must hit the index, not append twice.
        const ItemId item = DrawItem(rng);
        const int64_t estimate =
            static_cast<int64_t>(rng.UniformUint64(2001)) - 1000;
        table.Assign(item, estimate);
        model[item] = estimate;
      } else if (kind < 99) {
        // A prune-shaped removal: keep |estimate| above a random cutoff.
        const int64_t cutoff = static_cast<int64_t>(rng.UniformUint64(1000));
        auto keep = [cutoff](const std::pair<ItemId, int64_t>& e) {
          return std::llabs(e.second) >= cutoff;
        };
        table.RetainIf(keep);
        std::erase_if(model, [&](const auto& e) { return !keep(e); });
      } else {
        table.Clear();
        model.clear();
      }
      ExpectMatches(table, model);
    }
  }
}

TEST(CandidateTableTest, GrowsPastReservedSize) {
  CandidateTable table;
  table.Reserve(4);
  Model model;
  for (ItemId i = 0; i < 1000; ++i) {
    const ItemId item = (i % 2 == 0) ? i : UINT64_MAX - i;
    table.Assign(item, static_cast<int64_t>(i));
    model[item] = static_cast<int64_t>(i);
  }
  ExpectMatches(table, model);
}

// --- CountSketchTopK against a reference model ----------------------------
//
// The model replays the tracker's documented rules on a std::map: after a
// batch, every distinct touched item (ascending) takes its post-batch
// estimate and the set is pruned to the k strongest (|estimate| desc, item
// asc) whenever it exceeds 2k; a merge re-estimates the union against the
// merged counters and prunes to k when it exceeds k.

bool Stronger(const std::pair<ItemId, int64_t>& a,
              const std::pair<ItemId, int64_t>& b) {
  const int64_t aa = std::llabs(a.second);
  const int64_t bb = std::llabs(b.second);
  if (aa != bb) return aa > bb;
  return a.first < b.first;
}

void PruneModel(Model* model, size_t k) {
  std::vector<std::pair<ItemId, int64_t>> ranked(model->begin(), model->end());
  std::sort(ranked.begin(), ranked.end(), Stronger);
  ranked.resize(k);
  *model = Model(ranked.begin(), ranked.end());
}

void ApplyBatchToModel(const CountSketchTopK& tracker,
                       const std::vector<Update>& batch, Model* model) {
  std::vector<ItemId> touched;
  for (const Update& u : batch) touched.push_back(u.item);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const ItemId item : touched) {
    (*model)[item] = tracker.sketch().Estimate(item);
    if (model->size() > 2 * tracker.k()) PruneModel(model, tracker.k());
  }
}

void ExpectTrackerMatches(const CountSketchTopK& tracker, const Model& model) {
  std::vector<ItemId> items;
  for (const auto& [item, estimate] : model) items.push_back(item);
  EXPECT_EQ(tracker.CandidateItems(), items);
  std::vector<std::pair<ItemId, int64_t>> ranked(model.begin(), model.end());
  std::sort(ranked.begin(), ranked.end(), Stronger);
  if (ranked.size() > tracker.k()) ranked.resize(tracker.k());
  EXPECT_EQ(tracker.TopK(), ranked);
}

std::vector<Update> RandomBatch(Rng& rng, size_t n) {
  std::vector<Update> batch;
  for (size_t i = 0; i < n; ++i) {
    const int64_t delta = static_cast<int64_t>(rng.UniformUint64(21)) - 6;
    batch.push_back(Update{DrawItem(rng), delta});
  }
  return batch;
}

TEST(CandidateTableTest, TopKTrackerMatchesModelThroughBatchesAndMerges) {
  const CountSketchOptions geometry{3, 32};
  constexpr size_t kK = 5;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng data(100 + seed);
    Rng ra(seed), rb(seed);
    CountSketchTopK a(geometry, kK, ra), b(geometry, kK, rb);
    Model ma, mb;
    for (int round = 0; round < 12; ++round) {
      for (auto [tracker, model] : {std::pair{&a, &ma}, std::pair{&b, &mb}}) {
        const std::vector<Update> batch =
            RandomBatch(data, 1 + data.UniformUint64(40));
        tracker->UpdateBatch(batch.data(), batch.size());
        ApplyBatchToModel(*tracker, batch, model);
        ExpectTrackerMatches(*tracker, *model);
      }
      if (round % 4 == 3) {
        // Both sides hold up to 2k candidates, so the union can reach 4k --
        // past the 2k + 1 the table reserves -- before the merge prunes.
        Model merged = ma;
        merged.insert(mb.begin(), mb.end());
        a.MergeFrom(b);
        for (auto& [item, estimate] : merged) {
          estimate = a.sketch().Estimate(item);
        }
        if (merged.size() > kK) PruneModel(&merged, kK);
        ma = merged;
        ExpectTrackerMatches(a, ma);
        // Restart b from a fresh same-seed tracker for the next shard.
        Rng fresh(seed);
        b = CountSketchTopK(geometry, kK, fresh);
        mb.clear();
      }
    }
  }
}

TEST(CandidateTableTest, MergeUnionLargerThanTwoKPlusOne) {
  const CountSketchOptions geometry{3, 64};
  constexpr size_t kK = 3;
  Rng ra(9), rb(9);
  CountSketchTopK a(geometry, kK, ra), b(geometry, kK, rb);
  // Disjoint id ranges with equal weights: each side keeps up to 2k
  // candidates, the union holds more than 2k + 1.
  std::vector<Update> left, right;
  for (ItemId i = 0; i < 2 * kK; ++i) {
    left.push_back(Update{i, 50 + static_cast<int64_t>(i)});
    right.push_back(Update{UINT64_MAX - i, 60 + static_cast<int64_t>(i)});
  }
  a.UpdateBatch(left.data(), left.size());
  b.UpdateBatch(right.data(), right.size());
  std::vector<ItemId> uni = a.CandidateItems();
  for (const ItemId item : b.CandidateItems()) uni.push_back(item);
  std::sort(uni.begin(), uni.end());
  ASSERT_GT(uni.size(), 2 * kK + 1);
  a.MergeFrom(b);
  Model model;
  for (const ItemId item : uni) model[item] = a.sketch().Estimate(item);
  PruneModel(&model, kK);
  ExpectTrackerMatches(a, model);
}

}  // namespace
}  // namespace gstream
