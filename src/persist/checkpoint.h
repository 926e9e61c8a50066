// Crash-consistent checkpoint/restart for the sharded ingestion engine.
//
// A checkpoint captures a running ingestion at a quiescent chunk boundary:
// the stream cursor, the producer routing state (round-robin position,
// staged partial chunks, stats -- see IngestProducerState), and one
// serialized sketch blob per shard.  The file is written with the
// write-tmp / fsync / rename / fsync-parent sequence (WriteFileAtomic), so
// a crash at any instant leaves either the previous complete checkpoint or
// the new complete checkpoint, never a torn mix; the torn-write tests
// inject a fault at every phase and assert exactly that.  Under
// RunWithCheckpoints the capture runs on the engine's own workers (one
// replica each) and the write on a writer thread, overlapped with the
// next interval's ingest.
//
// Restart contract (the bit-exactness pin): Open() a fresh ingestor with
// the writer's factory (same seed), shard count, policy, and chunk
// framing; RestoreIngestor() the image; resume submitting at image.cursor
// in slices that are multiples of chunk_updates (RunWithCheckpoints does
// this).  The final merged sketch -- including candidate metadata of
// composite sinks, which observes chunk framing, not just the update
// multiset -- is then bit-identical to an uninterrupted run.  That is why
// the checkpoint carries staged partial chunks and the round-robin cursor
// rather than merely an update count, and why CheckpointOptions::
// interval_updates must be a multiple of the engine's chunk_updates
// (checked).
//
// File layout (little-endian, sharing the persist byte primitives):
//
//   bytes 0-3   magic "GCKP"
//   u32         checkpoint format version
//   u64         shards
//   u64         cursor (updates of the input stream consumed)
//   u64         round_robin_next
//   u64 x3      stats: updates_submitted, chunks_committed, producer_stalls
//   u64 x S     stats: shard_updates
//   per shard   u64 staged count, then (u64 item, i64 delta) pairs
//   per shard   length-prefixed sketch blob (self-validating, sketch_io.h)
//   u64         FNV-1a checksum of every preceding byte

#ifndef GSTREAM_PERSIST_CHECKPOINT_H_
#define GSTREAM_PERSIST_CHECKPOINT_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/sharded_ingestor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/sketch_io.h"
#include "stream/stream.h"
#include "util/logging.h"
#include "util/status.h"

namespace gstream {

inline constexpr uint32_t kCheckpointFormatVersion = 1;

// In-memory image of one checkpoint.
struct CheckpointImage {
  uint64_t cursor = 0;  // updates of the input stream consumed so far
  IngestProducerState producer;
  std::vector<std::string> shard_blobs;  // one wire blob per shard replica
};

// The GCKP file of `image`.  SaveCheckpoint writes the same bytes without
// joining them: the header, each shard blob in place, and the trailer.
std::string EncodeCheckpoint(const CheckpointImage& image);

// Total over arbitrary bytes, like DeserializeSketch: magic, truncation,
// checksum, and version failures come back as a clean LoadStatus and the
// image is untouched.  One pass hashes the whole file against its trailer;
// shard blobs are only framed here.  Their contents self-validate when
// RestoreIngestor feeds them to DeserializeSketch, which checks all of a
// blob's nested checksums in one more pass -- so a restore reads each
// byte twice.  The producer state is checked against the engine by
// RestoreIngestor, which alone knows the shard count and chunk size.
LoadStatus DecodeCheckpoint(std::string_view bytes, CheckpointImage* image);

// Writes EncodeCheckpoint's bytes with WriteFileAtomic (fault injectable
// for the torn-write tests), checksumming and writing the pieces in place.
// Counts persist/ckpt_saves or persist/ckpt_save_failures.
bool SaveCheckpoint(const CheckpointImage& image, const std::string& path,
                    WriteFault fault = WriteFault::kNone);

// ReadFileBytes + Decode.
LoadStatus LoadCheckpoint(const std::string& path, CheckpointImage* image);

// Saves checkpoint images on a thread of its own, one at a time, so the
// producer submits the next interval while image k is checksummed, written
// and fsynced.  Start() hands over an image that must stay unchanged until
// the next Wait() returns; Wait() blocks until the image in flight, if
// any, is durable or has failed, recording the time it blocked in
// persist/ckpt_write_wait_ns.  The thread starts with the first image; the
// destructor waits for the image in flight and joins it.  Producer thread
// only.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string path, WriteFault fault);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  // At most one image in flight (checked): Wait() first.
  void Start(const CheckpointImage& image);
  // False once any image handed to this writer failed to save.
  bool Wait();

 private:
  void Loop();

  const std::string path_;
  const WriteFault fault_;
  obs::Histogram* const wait_ns_;
  std::mutex mu_;
  std::condition_variable cv_;
  const CheckpointImage* job_ = nullptr;  // in flight until the save ends
  bool ok_ = true;
  bool stop_ = false;
  std::thread thread_;
  // Writer-thread buffers, kept across images: the file bytes that are not
  // shard blobs, and the file's pieces in order.
  std::string frame_;
  std::vector<std::string_view> parts_;
};

// Captures a running ingestion into *image: quiesces the engine (Flush),
// snapshots the producer state, and serializes every shard replica on the
// worker thread that owns it, all shards in parallel
// (ShardedIngestor::RunOnWorkers).  `cursor` is the caller's position in
// the input stream.  The ingestor stays live.
//
// A capture reuses *image's blob buffers.  They are sized here, on the
// calling thread, from each replica's SpaceBytes(), which is at least the
// blob's size for the stacks and top-k sketches (a blob carries counters
// and candidates, not hash coefficients), and they keep their capacity.
// So the workers write into memory this thread allocated: a worker-side
// allocation would land in that thread's glibc arena and stay resident.
//
// `in_flight`, if set, is a writer that may still be saving the previous
// capture from *image.  The capture waits for it after the quiesce, before
// touching *image, so the workers' drain overlaps the write.
//
// A degraded engine is never captured: if the quiesce reports an error (a
// sink threw, or the watchdog named a stalled worker whose replica may
// still change), that error is returned, no replica is read, and *image is
// left as it was.  Returns EngineError::ok() on success.
template <typename SketchT>
EngineError SnapshotIngestor(ShardedIngestor<SketchT>& ingest,
                             uint64_t cursor, CheckpointImage* image,
                             CheckpointWriter* in_flight = nullptr) {
  obs::TraceSpan span("persist/snapshot", "persist");
  obs::Registry& registry = obs::Registry::Get();
  // The two phases have different owners -- quiesce waits on the workers
  // to drain, serialize on the workers to write their blobs -- so they get
  // separate histograms.
  {
    obs::ScopedTimer quiesce(registry.GetHistogram("persist/ckpt_quiesce_ns"));
    if (EngineError error = ingest.Flush(); !error.ok()) return error;
  }
  if (in_flight != nullptr) in_flight->Wait();
  obs::ScopedTimer serialize(
      registry.GetHistogram("persist/ckpt_serialize_ns"));
  image->cursor = cursor;
  image->producer = ingest.SnapshotProducerState();
  std::vector<std::string>& blobs = image->shard_blobs;
  blobs.resize(ingest.replicas().size());
  for (size_t s = 0; s < blobs.size(); ++s) {
    blobs[s].reserve(ingest.replicas()[s].SpaceBytes());
  }
  ingest.RunOnWorkers([&blobs](size_t s, const SketchT& replica) {
    SerializeSketch(replica, &blobs[s]);
  });
  return EngineError{};
}

// Checks an image's producer state against an engine of `shards` shards
// and `chunk_updates`-update chunks: the round-robin cursor must name a
// shard and every staged partial chunk must be shorter than a chunk.  A
// checksum only proves the bytes are the ones written, so an image that
// breaks either bound fails here with kDomainError, naming the shard,
// instead of crashing the engine that adopts it.
LoadStatus CheckProducerState(const IngestProducerState& producer,
                              size_t shards, size_t chunk_updates);

// Counts a restore's outcome (persist/ckpt_restores or
// persist/ckpt_restore_failures) and passes `status` through.
LoadStatus CountRestore(LoadStatus status);

// Restores an image into a freshly Open()ed ingestor built from the
// writer's factory and options.  A shard-count mismatch or a bad producer
// state fails before the ingestor is touched.  A shard blob that rejects
// its replica fails with a report naming the shard, and the ingestor must
// then be discarded.  On success the caller resumes submitting at
// image.cursor.
template <typename SketchT>
LoadStatus RestoreIngestor(const CheckpointImage& image,
                           ShardedIngestor<SketchT>* ingest) {
  obs::TraceSpan span("persist/restore", "persist");
  obs::ScopedTimer timer(
      obs::Registry::Get().GetHistogram("persist/ckpt_restore_ns"));
  const size_t shards = ingest->replicas().size();
  if (image.shard_blobs.size() != shards) {
    return CountRestore(LoadStatus::Fail(
        LoadError::kGeometryMismatch,
        "checkpoint has " + std::to_string(image.shard_blobs.size()) +
            " shards, ingestor opened with " + std::to_string(shards)));
  }
  if (LoadStatus status = CheckProducerState(
          image.producer, shards, ingest->engine_options().chunk_updates);
      !status.ok()) {
    return CountRestore(status);
  }
  for (size_t s = 0; s < shards; ++s) {
    LoadStatus status =
        DeserializeSketch(image.shard_blobs[s], &ingest->replicas()[s]);
    if (!status.ok()) {
      status.message = "shard " + std::to_string(s) + ": " + status.message;
      return CountRestore(status);
    }
  }
  ingest->RestoreProducerState(image.producer);
  return CountRestore(LoadStatus::Ok());
}

struct CheckpointOptions {
  std::string path;
  // Updates between checkpoints; must be a multiple of the engine's
  // chunk_updates so resumed chunk framing matches an uninterrupted run
  // (checked in RunWithCheckpoints).
  uint64_t interval_updates = 1 << 16;
  // Injected into every checkpoint write (torn-write tests).
  WriteFault fault = WriteFault::kNone;
};

// Feeds `stream` from update `start`, checkpointing every interval (and
// once at end-of-stream).  `after_checkpoint`, if set, runs after each
// checkpoint is durable, with the current cursor; returning false stops
// the feed there (the kill-point hook the crash tests use).  Returns the
// cursor reached: stream.length() on completion, earlier if stopped by the
// hook, by a refused capture or by a failed save.
//
// Overlap: each image is saved by a CheckpointWriter while the producer
// submits the next interval and the workers drain it; at most one image is
// in flight, and the producer waits for it before the next capture reads
// or writes the image, and before returning.
// With a hook the producer waits for durability before calling it, so
// there is no overlap and the stop contract below holds.
//
// Failures end the run early and leave the previous checkpoint file as it
// was:
//   * a refused capture (a degraded engine; ingest.error() names why)
//     counts persist/ckpt_save_failures and returns the capture's cursor;
//   * a failed save returns the updates submitted so far -- at most one
//     interval past the failed image, whose successor was being submitted
//     while it was written.  A failure of the final image is seen only in
//     persist/ckpt_save_failures: the cursor is already stream.length().
//
// Stop contract: when the hook returns false at cursor c, the call returns
// c and exactly updates [start, c) have been submitted to `ingest` -- none
// beyond the checkpoint.  The same ingestor can therefore carry on with
// RunWithCheckpoints(ingest, stream, c, ...) and end bit-identical to an
// uninterrupted run (CheckpointTest.StopHookLeavesIngestorAtCursor).
template <typename SketchT>
uint64_t RunWithCheckpoints(
    ShardedIngestor<SketchT>& ingest, const Stream& stream, uint64_t start,
    const CheckpointOptions& options,
    const std::function<bool(uint64_t)>& after_checkpoint = nullptr) {
  const uint64_t chunk = ingest.engine_options().chunk_updates;
  GSTREAM_CHECK_GE(options.interval_updates, chunk);
  GSTREAM_CHECK_EQ(options.interval_updates % chunk, 0u);
  GSTREAM_CHECK_EQ(start % chunk, 0u);
  const Update* updates = stream.updates().data();
  const uint64_t total = stream.length();
  GSTREAM_CHECK_LE(start, total);
  CheckpointImage image;  // every capture of this run reuses its buffers
  CheckpointWriter writer(options.path, options.fault);
  uint64_t cursor = start;
  while (cursor < total) {
    const uint64_t n = std::min(options.interval_updates, total - cursor);
    ingest.Submit(updates + cursor, n);
    cursor += n;
    const bool captured =
        SnapshotIngestor(ingest, cursor, &image, &writer).ok();
    if (!writer.Wait()) return cursor;  // the previous image failed
    if (!captured) {
      obs::Registry::Get()
          .GetCounter("persist/ckpt_save_failures")
          ->Increment();
      return cursor;
    }
    writer.Start(image);
    if (after_checkpoint != nullptr &&
        (!writer.Wait() || !after_checkpoint(cursor))) {
      return cursor;
    }
  }
  writer.Wait();
  return cursor;
}

}  // namespace gstream

#endif  // GSTREAM_PERSIST_CHECKPOINT_H_
