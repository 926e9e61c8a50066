// Byte-identity pins for the checkpoint capture path: every GCKP file that
// RunWithCheckpoints writes for a live 3-shard ingestor.
//
// SketchIoGoldenTest pins EncodeCheckpoint of a hand-built image; these
// pin what the capture produces end to end -- the quiesce, the producer
// state (round-robin cursor, kHashItem staged partial chunks, stats), every
// shard replica's blob and the file envelope -- for a CountSketchTopK and a
// RecursiveGSum (OnePassHH levels) ingestor under both partition policies.
// The constants were recorded with the single-threaded capture (producer
// serializes every shard, then writes the file before submitting on); they
// pin that moving the capture across threads changes no byte.
//
// A hooked run observes each file as it lands.  Without a hook only the
// last file survives, so the hook-less run is checked on every prefix of
// the stream that ends on a checkpoint: its final file must be the hooked
// run's file at that cursor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "persist/checkpoint.h"
#include "sketch/count_sketch.h"
#include "stream/generators.h"

namespace gstream {
namespace {

constexpr uint64_t kSeed = 0xc0ffeeULL;
constexpr uint64_t kInterval = 2 * kStreamBatchSize;

// Independent FNV-1a, so the pins do not lean on the code under test.
uint64_t Digest(const std::string& bytes, uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  LoadStatus status;
  const std::optional<std::string> bytes = ReadFileBytes(path, &status);
  EXPECT_TRUE(bytes.has_value()) << status.message;
  return bytes.value_or("");
}

Stream MakeTestStream() {
  Rng rng(23);
  StreamShapeOptions shape;
  shape.churn_pairs = 1000;
  Workload w = MakeZipfWorkload(1 << 16, 8000, 1.2, 16000, shape, rng);
  return std::move(w.stream);
}

IngestEngineOptions Options(PartitionPolicy policy) {
  IngestEngineOptions options;
  options.shards = 3;
  options.policy = policy;
  return options;
}

ShardedIngestor<CountSketchTopK> TopKIngestor(PartitionPolicy policy) {
  return ShardedIngestor<CountSketchTopK>(Options(policy), [](size_t) {
    Rng rng(kSeed);
    return CountSketchTopK(CountSketchOptions{4, 128}, 16, rng);
  });
}

ShardedIngestor<RecursiveGSum> StackIngestor(PartitionPolicy policy) {
  return ShardedIngestor<RecursiveGSum>(Options(policy), [](size_t) {
    Rng rng(kSeed);
    return RecursiveGSum(
        5,
        [](int, Rng& r) {
          OnePassHHOptions options;
          options.count_sketch = {3, 64};
          options.ams = {8, 3};
          options.candidates = 8;
          return std::make_unique<OnePassHeavyHitter>(options, r);
        },
        rng);
  });
}

// What one configuration's files must hash to: how many the hooked run
// writes, the FNV-1a digest over all of their bytes in order, and the last
// file's length and digest.
struct Pin {
  size_t files;
  uint64_t sequence_digest;
  size_t last_size;
  uint64_t last_digest;
};

template <typename SketchT>
void ExpectCapturePinned(ShardedIngestor<SketchT> (*make)(PartitionPolicy),
                         PartitionPolicy policy, const std::string& tag,
                         const Pin& pin) {
  const Stream stream = MakeTestStream();
  CheckpointOptions options;
  options.interval_updates = kInterval;

  // Hooked run: every file, read as it lands.
  options.path = TempPath("capture_golden_hook_" + tag + ".gckp");
  std::vector<std::string> files;
  {
    ShardedIngestor<SketchT> ingest = make(policy);
    ingest.Open();
    const uint64_t end = RunWithCheckpoints<SketchT>(
        ingest, stream, 0, options, [&](uint64_t) {
          files.push_back(ReadFile(options.path));
          return true;
        });
    ASSERT_EQ(end, stream.length());
    ingest.Close();
  }
  std::remove(options.path.c_str());
  ASSERT_FALSE(files.empty());
  uint64_t sequence = 0xcbf29ce484222325ULL;
  std::string listing;
  for (const std::string& file : files) {
    sequence = Digest(file, sequence);
    char line[64];
    std::snprintf(line, sizeof(line), "  %zu 0x%016llx\n", file.size(),
                  static_cast<unsigned long long>(Digest(file)));
    listing += line;
  }
  EXPECT_EQ(files.size(), pin.files) << tag;
  EXPECT_EQ(sequence, pin.sequence_digest)
      << tag << ": files written (size, digest):\n" << listing;
  EXPECT_EQ(files.back().size(), pin.last_size) << tag;
  EXPECT_EQ(Digest(files.back()), pin.last_digest) << tag;

  // Hook-less runs over every checkpoint-ending prefix: the file left
  // behind is the hooked run's file at that cursor.
  options.path = TempPath("capture_golden_nohook_" + tag + ".gckp");
  for (size_t k = 1; k <= files.size(); ++k) {
    const uint64_t length = std::min<uint64_t>(k * kInterval, stream.length());
    Stream prefix(stream.domain());
    for (uint64_t i = 0; i < length; ++i) {
      prefix.Append(stream.updates()[i].item, stream.updates()[i].delta);
    }
    ShardedIngestor<SketchT> ingest = make(policy);
    ingest.Open();
    ASSERT_EQ(RunWithCheckpoints<SketchT>(ingest, prefix, 0, options), length);
    ingest.Close();
    EXPECT_EQ(ReadFile(options.path), files[k - 1])
        << tag << ": hook-less file at checkpoint " << k;
  }
  std::remove(options.path.c_str());
}

TEST(CheckpointCaptureGoldenTest, TopKRoundRobin) {
  ExpectCapturePinned(TopKIngestor, PartitionPolicy::kRoundRobinChunks,
                      "topk_rr",
                      {10, 0xd7a5d45723125bfaULL, 14032,
                       0x9954a37970d2e27cULL});
}

TEST(CheckpointCaptureGoldenTest, TopKHashItemWithStagedChunks) {
  ExpectCapturePinned(TopKIngestor, PartitionPolicy::kHashItem, "topk_hash",
                      {10, 0xd5cbac07c9ce21a1ULL, 26432,
                       0x7948e65f6efe0366ULL});
}

TEST(CheckpointCaptureGoldenTest, RecursiveGSumRoundRobin) {
  ExpectCapturePinned(StackIngestor, PartitionPolicy::kRoundRobinChunks,
                      "stack_rr",
                      {10, 0x1bdadfa9aa494812ULL, 38832,
                       0xcb6b485858f8bdffULL});
}

TEST(CheckpointCaptureGoldenTest, RecursiveGSumHashItemWithStagedChunks) {
  ExpectCapturePinned(StackIngestor, PartitionPolicy::kHashItem, "stack_hash",
                      {10, 0x33f0805a0548c84aULL, 51072,
                       0xb310502780732668ULL});
}

// A writer that crashes mid-file on every save: the run ends early, at most
// one interval past the first image (the capture after it may already have
// been submitted while the write was in flight), and no file is left at
// the target path.
TEST(CheckpointCaptureGoldenTest, FailingWriterEndsRunWithoutAFile) {
  const Stream stream = MakeTestStream();
  CheckpointOptions options;
  options.interval_updates = kInterval;
  options.fault = WriteFault::kCrashMidTmp;
  options.path = TempPath("capture_golden_failing.gckp");
  std::remove(options.path.c_str());
  ShardedIngestor<CountSketchTopK> ingest =
      TopKIngestor(PartitionPolicy::kHashItem);
  ingest.Open();
  const uint64_t end =
      RunWithCheckpoints<CountSketchTopK>(ingest, stream, 0, options);
  EXPECT_LT(end, stream.length());
  EXPECT_GE(end, kInterval);
  EXPECT_LE(end, 2 * kInterval);
  EXPECT_EQ(ingest.stats().updates_submitted, end);
  ingest.Close();
  EXPECT_EQ(::access(options.path.c_str(), F_OK), -1);
  std::remove((options.path + ".tmp").c_str());
}

}  // namespace
}  // namespace gstream
