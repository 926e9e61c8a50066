// Const queries on a quiesced sketch must be safe from many reader
// threads at once: AmsSketch::EstimateF2, CountMinSketch::EstimateMedian
// and CountSketch's Estimate / EstimateAllInto / EstimateF2 keep their
// median scratch on the caller's stack, not in a shared mutable member,
// and IngestEngine::stats() aggregates into the value it returns.
// Every thread must see exactly the single-threaded answer, and under TSan
// (CI runs this suite there) any shared write is a reported race.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "engine/sharded_ingestor.h"
#include "sketch/ams.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "stream/generators.h"

namespace gstream {
namespace {

constexpr size_t kThreads = 4;
constexpr size_t kQueriesPerThread = 2000;

// Runs `query(t, q)` from kThreads threads at once; returns how many calls
// disagreed with the expected answer (query returns false on mismatch).
template <typename Query>
size_t CountConcurrentMismatches(const Query& query) {
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (size_t q = 0; q < kQueriesPerThread; ++q) {
        if (!query(t, q)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return mismatches.load();
}

Workload MakeQueryWorkload(Rng& rng) {
  return MakeZipfWorkload(1 << 12, 500, 1.2, 20000, StreamShapeOptions{},
                          rng);
}

TEST(ConstQueryConcurrencyTest, AmsEstimateF2FromFourThreads) {
  Rng rng(11);
  const Workload w = MakeQueryWorkload(rng);
  AmsSketch ams(AmsOptions{16, 7}, rng);
  ProcessStream(ams, w.stream);
  const double expected = ams.EstimateF2();
  EXPECT_EQ(CountConcurrentMismatches([&](size_t, size_t) {
              return ams.EstimateF2() == expected;
            }),
            0u);
}

TEST(ConstQueryConcurrencyTest, CountMinEstimateMedianFromFourThreads) {
  Rng rng(12);
  const Workload w = MakeQueryWorkload(rng);
  CountMinSketch cm(CountMinOptions{7, 128}, rng);
  ProcessStream(cm, w.stream);
  std::vector<int64_t> expected(w.stream.domain());
  for (ItemId item = 0; item < w.stream.domain(); ++item) {
    expected[item] = cm.EstimateMedian(item);
  }
  EXPECT_EQ(CountConcurrentMismatches([&](size_t t, size_t q) {
              const ItemId item = (q * kThreads + t) % expected.size();
              return cm.EstimateMedian(item) == expected[item];
            }),
            0u);
}

// One test drives all three CountSketch queries, interleaved per thread,
// so a shared scratch buffer would be written by every query kind at once.
TEST(ConstQueryConcurrencyTest, CountSketchQueriesFromFourThreads) {
  Rng rng(13);
  const Workload w = MakeQueryWorkload(rng);
  CountSketch cs(CountSketchOptions{7, 128}, rng);
  ProcessStream(cs, w.stream);
  std::vector<ItemId> items(w.stream.domain());
  for (ItemId item = 0; item < items.size(); ++item) items[item] = item;
  std::vector<int64_t> expected(items.size());
  for (ItemId item = 0; item < items.size(); ++item) {
    expected[item] = cs.Estimate(item);
  }
  const double expected_f2 = cs.EstimateF2();
  constexpr size_t kBatch = 37;
  EXPECT_EQ(CountConcurrentMismatches([&](size_t t, size_t q) {
              const size_t item = (q * kThreads + t) % items.size();
              switch (q % 3) {
                case 0:
                  return cs.Estimate(item) == expected[item];
                case 1: {
                  const size_t first = std::min(item, items.size() - kBatch);
                  int64_t batch[kBatch];
                  cs.EstimateAllInto(items.data() + first, kBatch, batch);
                  return std::equal(batch, batch + kBatch,
                                    expected.begin() +
                                        static_cast<ptrdiff_t>(first));
                }
                default:
                  return cs.EstimateF2() == expected_f2;
              }
            }),
            0u);
}

bool SameStats(const IngestStats& a, const IngestStats& b) {
  return a.updates_submitted == b.updates_submitted &&
         a.chunks_committed == b.chunks_committed &&
         a.producer_stalls == b.producer_stalls &&
         a.producer_stall_ns == b.producer_stall_ns &&
         a.updates_shed == b.updates_shed &&
         a.deadline_timeouts == b.deadline_timeouts &&
         a.updates_applied == b.updates_applied &&
         a.shard_updates == b.shard_updates &&
         a.shard_updates_applied == b.shard_updates_applied &&
         a.shard_updates_shed == b.shard_updates_shed &&
         a.shard_ring_highwater == b.shard_ring_highwater;
}

TEST(ConstQueryConcurrencyTest, EngineStatsFromFourThreads) {
  Rng rng(14);
  const Workload w = MakeQueryWorkload(rng);
  IngestEngineOptions options;
  options.policy = PartitionPolicy::kHashItem;
  ShardedIngestor<CountSketch> ingest(options, [](size_t) {
    Rng sketch_rng(15);
    return CountSketch(CountSketchOptions{3, 64}, sketch_rng);
  });
  ingest.Open(3);
  for (int i = 0; i < 16; ++i) ingest.SubmitStream(w.stream);
  ASSERT_TRUE(ingest.Flush().ok());
  const IngestStats expected = ingest.stats();
  ASSERT_GT(expected.updates_applied, 0u);
  EXPECT_EQ(CountConcurrentMismatches([&](size_t, size_t) {
              return SameStats(ingest.stats(), expected);
            }),
            0u);
  ingest.Close();
}

}  // namespace
}  // namespace gstream
