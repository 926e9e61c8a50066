// Const queries on a quiesced sketch must be safe from many reader
// threads at once: AmsSketch::EstimateF2 and CountMinSketch::EstimateMedian
// keep their median scratch on the caller's stack, not in a shared mutable
// member.  Every thread must see exactly the single-threaded answer, and
// under TSan (CI runs this suite there) any shared write is a reported race.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sketch/ams.h"
#include "sketch/count_min.h"
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

}  // namespace
}  // namespace gstream
