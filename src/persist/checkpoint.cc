#include "persist/checkpoint.h"

#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace gstream {

namespace {

constexpr char kCheckpointMagic[4] = {'G', 'C', 'K', 'P'};
// magic + version + shards + cursor + round_robin + three stat words.
constexpr size_t kCheckpointHeaderBytes = 4 + 4 + 8 + 8 + 8 + 3 * 8;
constexpr size_t kChecksumBytes = 8;

LoadStatus Truncated(const std::string& what) {
  return LoadStatus::Fail(LoadError::kTruncated,
                          "checkpoint ends inside " + what);
}

// Frames `image` as a GCKP file in pieces.  `frame` receives every byte
// that is not a shard blob -- the header with the producer state, each
// blob's length prefix, and the trailer -- and `parts` the file in order,
// viewing `frame` and the blobs in place.  The whole-file checksum runs
// over the pieces, so no blob is copied.
void FrameCheckpoint(const CheckpointImage& image, std::string* frame,
                     std::vector<std::string_view>* parts) {
  const size_t shards = image.shard_blobs.size();
  GSTREAM_CHECK_EQ(image.producer.staged.size(), shards);
  GSTREAM_CHECK_EQ(image.producer.stats.shard_updates.size(), shards);
  persist::ByteWriter w(std::move(*frame));
  w.PutBytes(std::string_view(kCheckpointMagic, sizeof(kCheckpointMagic)));
  w.PutU32(kCheckpointFormatVersion);
  w.PutU64(shards);
  w.PutU64(image.cursor);
  w.PutU64(image.producer.round_robin_next);
  w.PutU64(image.producer.stats.updates_submitted);
  w.PutU64(image.producer.stats.chunks_committed);
  w.PutU64(image.producer.stats.producer_stalls);
  for (const uint64_t u : image.producer.stats.shard_updates) w.PutU64(u);
  for (const auto& staged : image.producer.staged) {
    w.PutU64(staged.size());
    for (const Update& u : staged) {
      w.PutU64(u.item);
      w.PutI64(u.delta);
    }
  }
  const size_t head = w.size();
  for (const std::string& blob : image.shard_blobs) w.PutU64(blob.size());
  w.PutU64(0);  // trailer, filled below
  *frame = w.Seal();
  const std::string_view bytes(*frame);
  parts->clear();
  parts->push_back(bytes.substr(0, head));
  for (size_t s = 0; s < shards; ++s) {
    parts->push_back(bytes.substr(head + 8 * s, 8));
    parts->push_back(image.shard_blobs[s]);
  }
  uint64_t checksum = persist::Checksum64("");
  for (const std::string_view part : *parts) {
    checksum = persist::Checksum64(part, checksum);
  }
  const size_t trailer = head + 8 * shards;
  for (size_t i = 0; i < kChecksumBytes; ++i) {
    (*frame)[trailer + i] = static_cast<char>(checksum >> (8 * i));
  }
  parts->push_back(bytes.substr(trailer, kChecksumBytes));
}

bool SaveFramed(const CheckpointImage& image, const std::string& path,
                WriteFault fault, std::string* frame,
                std::vector<std::string_view>* parts) {
  obs::TraceSpan span("persist/save_checkpoint", "persist");
  obs::Registry& registry = obs::Registry::Get();
  obs::ScopedTimer timer(registry.GetHistogram("persist/ckpt_write_ns"));
  FrameCheckpoint(image, frame, parts);
  const bool ok = WriteFileAtomic(path, *parts, fault);
  if (ok) {
    size_t bytes = 0;
    for (const std::string_view part : *parts) bytes += part.size();
    registry.GetCounter("persist/ckpt_saves")->Increment();
    registry.GetCounter("persist/ckpt_bytes_written")->Add(bytes);
  } else {
    registry.GetCounter("persist/ckpt_save_failures")->Increment();
  }
  return ok;
}

}  // namespace

std::string EncodeCheckpoint(const CheckpointImage& image) {
  std::string frame;
  std::vector<std::string_view> parts;
  FrameCheckpoint(image, &frame, &parts);
  size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  std::string bytes;
  bytes.reserve(size);
  for (const std::string_view part : parts) bytes.append(part);
  return bytes;
}

LoadStatus DecodeCheckpoint(std::string_view bytes, CheckpointImage* image) {
  if (bytes.size() < sizeof(kCheckpointMagic) ||
      std::memcmp(bytes.data(), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0) {
    return LoadStatus::Fail(LoadError::kBadMagic,
                            "not a gstream checkpoint (bad magic)");
  }
  if (bytes.size() < kCheckpointHeaderBytes + kChecksumBytes) {
    return Truncated("the header");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - kChecksumBytes);
  persist::ByteReader tail(bytes.substr(bytes.size() - kChecksumBytes));
  uint64_t stored_checksum = 0;
  tail.GetU64(&stored_checksum);
  if (persist::Checksum64(body) != stored_checksum) {
    return LoadStatus::Fail(LoadError::kChecksumMismatch,
                            "whole-file checksum mismatch (corrupt or torn "
                            "checkpoint)");
  }
  persist::ByteReader r(body);
  std::string_view magic;
  r.GetBytes(sizeof(kCheckpointMagic), &magic);
  uint32_t version = 0;
  r.GetU32(&version);
  if (version != kCheckpointFormatVersion) {
    return LoadStatus::Fail(
        LoadError::kVersionSkew,
        "checkpoint version " + std::to_string(version) +
            ", this build reads " + std::to_string(kCheckpointFormatVersion));
  }
  CheckpointImage out;
  uint64_t shards = 0;
  r.GetU64(&shards);
  r.GetU64(&out.cursor);
  uint64_t round_robin = 0;
  r.GetU64(&round_robin);
  out.producer.round_robin_next = static_cast<size_t>(round_robin);
  r.GetU64(&out.producer.stats.updates_submitted);
  r.GetU64(&out.producer.stats.chunks_committed);
  r.GetU64(&out.producer.stats.producer_stalls);
  // Every per-shard record is at least 8 bytes, so this bound rejects a
  // corrupt shard count before any allocation sized by it.
  if (shards > r.remaining() / 8) return Truncated("the shard table");
  out.producer.stats.shard_updates.resize(static_cast<size_t>(shards));
  for (uint64_t& u : out.producer.stats.shard_updates) {
    if (!r.GetU64(&u)) return Truncated("shard update counts");
  }
  out.producer.staged.resize(static_cast<size_t>(shards));
  for (auto& staged : out.producer.staged) {
    uint64_t n = 0;
    if (!r.GetU64(&n)) return Truncated("staged chunk counts");
    if (n > r.remaining() / 16) return Truncated("staged updates");
    staged.resize(static_cast<size_t>(n));
    for (Update& u : staged) {
      if (!r.GetU64(&u.item) || !r.GetI64(&u.delta)) {
        return Truncated("staged updates");
      }
    }
  }
  out.shard_blobs.resize(static_cast<size_t>(shards));
  for (uint64_t s = 0; s < shards; ++s) {
    std::string_view blob;
    if (!r.GetBlob(&blob)) {
      return Truncated("shard " + std::to_string(s) + "'s sketch blob");
    }
    out.shard_blobs[static_cast<size_t>(s)] = std::string(blob);
  }
  if (r.remaining() != 0) {
    return LoadStatus::Fail(LoadError::kTrailingData,
                            std::to_string(r.remaining()) +
                                " trailing bytes after the shard blobs");
  }
  *image = std::move(out);
  return LoadStatus::Ok();
}

bool SaveCheckpoint(const CheckpointImage& image, const std::string& path,
                    WriteFault fault) {
  std::string frame;
  std::vector<std::string_view> parts;
  return SaveFramed(image, path, fault, &frame, &parts);
}

LoadStatus LoadCheckpoint(const std::string& path, CheckpointImage* image) {
  obs::TraceSpan span("persist/load_checkpoint", "persist");
  obs::ScopedTimer timer(
      obs::Registry::Get().GetHistogram("persist/ckpt_load_ns"));
  LoadStatus status;
  const std::optional<std::string> bytes = ReadFileBytes(path, &status);
  if (!bytes.has_value()) return status;
  return DecodeCheckpoint(*bytes, image);
}

CheckpointWriter::CheckpointWriter(std::string path, WriteFault fault)
    : path_(std::move(path)),
      fault_(fault),
      wait_ns_(obs::Registry::Get().GetHistogram(
          "persist/ckpt_write_wait_ns")) {}

CheckpointWriter::~CheckpointWriter() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void CheckpointWriter::Start(const CheckpointImage& image) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    GSTREAM_CHECK(job_ == nullptr);
    job_ = &image;
  }
  if (!thread_.joinable()) thread_ = std::thread(&CheckpointWriter::Loop, this);
  cv_.notify_all();
}

bool CheckpointWriter::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (job_ != nullptr) {
    obs::ScopedTimer timer(wait_ns_);
    cv_.wait(lock, [this] { return job_ == nullptr; });
  }
  return ok_;
}

void CheckpointWriter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return job_ != nullptr || stop_; });
    if (job_ == nullptr) return;
    const CheckpointImage& image = *job_;
    lock.unlock();
    const bool ok = SaveFramed(image, path_, fault_, &frame_, &parts_);
    lock.lock();
    ok_ = ok_ && ok;
    job_ = nullptr;
    cv_.notify_all();
  }
}

LoadStatus CheckProducerState(const IngestProducerState& producer,
                              size_t shards, size_t chunk_updates) {
  if (producer.round_robin_next >= shards) {
    return LoadStatus::Fail(
        LoadError::kDomainError,
        "round-robin cursor names shard " +
            std::to_string(producer.round_robin_next) + " of " +
            std::to_string(shards));
  }
  for (size_t s = 0; s < producer.staged.size(); ++s) {
    if (producer.staged[s].size() >= chunk_updates) {
      return LoadStatus::Fail(
          LoadError::kDomainError,
          "shard " + std::to_string(s) + ": " +
              std::to_string(producer.staged[s].size()) +
              " staged updates, but a staged chunk holds fewer than " +
              std::to_string(chunk_updates));
    }
  }
  return LoadStatus::Ok();
}

LoadStatus CountRestore(LoadStatus status) {
  obs::Registry::Get()
      .GetCounter(status.ok() ? "persist/ckpt_restores"
                              : "persist/ckpt_restore_failures")
      ->Increment();
  return status;
}

}  // namespace gstream
