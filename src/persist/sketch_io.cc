#include "persist/sketch_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "core/gnp_sketch.h"
#include "obs/metrics.h"
#include "core/heavy_hitters.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "core/two_pass_hh.h"
#include "sketch/ams.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "stream/exact.h"
#include "util/aligned.h"
#include "util/file_io.h"
#include "util/logging.h"

namespace gstream {
namespace persist {

namespace {

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// FNV-1a over [p, p + n) for K chains at once.  Each chain is a serial
// xor-multiply dependency; K independent chains fill the multiplier's
// pipeline, so K <= 4 costs what one chain costs.
template <size_t K>
void Fnv1aChains(const unsigned char* p, size_t n, uint64_t* chains) {
  uint64_t h[K];
  for (size_t k = 0; k < K; ++k) h[k] = chains[k];
  for (size_t i = 0; i < n; ++i) {
    const uint64_t b = p[i];
#pragma GCC unroll 4
    for (size_t k = 0; k < K; ++k) h[k] = (h[k] ^ b) * kFnvPrime;
  }
  for (size_t k = 0; k < K; ++k) chains[k] = h[k];
}

// Advances `count` chains over the same bytes, four at a time: the
// deepest sketch blob (RecursiveGSum -> OnePassHH -> CountSketchTopK ->
// CountSketch) nests four regions, so its counters cost one chain's time.
void HashChains(const unsigned char* p, size_t n, uint64_t* chains,
                size_t count) {
  for (; count >= 4; count -= 4, chains += 4) Fnv1aChains<4>(p, n, chains);
  switch (count) {
    case 3: Fnv1aChains<3>(p, n, chains); break;
    case 2: Fnv1aChains<2>(p, n, chains); break;
    case 1: Fnv1aChains<1>(p, n, chains); break;
    default: break;
  }
}

void StoreU64(char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(v >> (8 * i));
}

// The one sweep behind both sides of the nested checksums: ByteWriter::Seal
// fills trailers with it, and a load verifies them with it.  `marks` opens
// and closes regions at non-decreasing positions of `bytes`, properly
// nested.  Between consecutive marks the chains of every open region
// advance side by side; at a close mark the innermost region's chain goes
// to `close(mark, checksum)` before the enclosing chains hash on.
template <typename Mark, typename Close>
void SweepRegions(const unsigned char* bytes, const std::vector<Mark>& marks,
                  Close close) {
  // chains[d] is the running checksum of the open region at depth d.
  std::vector<uint64_t> chains;
  size_t pos = 0;
  for (const Mark& mark : marks) {
    HashChains(bytes + pos, mark.pos - pos, chains.data(), chains.size());
    pos = mark.pos;
    if (mark.open) {
      chains.push_back(kFnvOffsetBasis);
    } else {
      close(mark, chains.back());
      chains.pop_back();
    }
  }
}

}  // namespace

uint64_t Checksum64(std::string_view bytes) {
  uint64_t h = kFnvOffsetBasis;
  Fnv1aChains<1>(reinterpret_cast<const unsigned char*>(bytes.data()),
                 bytes.size(), &h);
  return h;
}

void ByteWriter::PutU32(uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  buf_.append(b, 4);
}

void ByteWriter::PutU64(uint64_t v) {
  char b[8];
  StoreU64(b, v);
  buf_.append(b, 8);
}

void ByteWriter::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void ByteWriter::PutI64s(const int64_t* v, size_t n) {
  const size_t at = buf_.size();
  buf_.resize(at + 8 * n);
  char* out = buf_.data() + at;
  for (size_t i = 0; i < n; ++i) {
    StoreU64(out + 8 * i, static_cast<uint64_t>(v[i]));
  }
}

void ByteWriter::PutBytes(std::string_view bytes) {
  buf_.append(bytes.data(), bytes.size());
}

void ByteWriter::PutBlob(std::string_view blob) {
  PutU64(blob.size());
  PutBytes(blob);
}

size_t ByteWriter::BeginChild() {
  const size_t length_at = buf_.size();
  PutU64(0);
  return length_at;
}

void ByteWriter::EndChild(size_t length_at) {
  StoreU64(buf_.data() + length_at, buf_.size() - length_at - 8);
}

void ByteWriter::OpenRegion() {
  marks_.push_back({buf_.size(), true});
  ++depth_;
}

void ByteWriter::CloseRegion() {
  GSTREAM_CHECK_GT(depth_, 0u);
  --depth_;
  marks_.push_back({buf_.size(), false});
  PutU64(0);
}

std::string ByteWriter::Seal() {
  GSTREAM_CHECK_EQ(depth_, 0u);
  // Each trailer is stored before the enclosing chains reach it.
  SweepRegions(reinterpret_cast<const unsigned char*>(buf_.data()), marks_,
               [this](const Mark& mark, uint64_t checksum) {
                 StoreU64(buf_.data() + mark.pos, checksum);
               });
  marks_.clear();
  return std::move(buf_);
}

bool ByteReader::GetU32(uint32_t* v) {
  if (remaining() < 4) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *v = r;
  return true;
}

bool ByteReader::GetU64(uint64_t* v) {
  if (remaining() < 8) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *v = r;
  return true;
}

bool ByteReader::GetI64(int64_t* v) {
  uint64_t u = 0;
  if (!GetU64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool ByteReader::GetBytes(size_t n, std::string_view* out) {
  if (remaining() < n) return false;
  *out = bytes_.substr(pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::GetBlob(std::string_view* out) {
  uint64_t len = 0;
  if (!GetU64(&len)) return false;
  if (len > remaining()) return false;
  return GetBytes(static_cast<size_t>(len), out);
}

namespace {

constexpr char kBlobMagic[4] = {'G', 'S', 'K', 'B'};
// magic + version + kind + flags + fingerprint.
constexpr size_t kBlobHeaderBytes = 4 + 4 + 4 + 4 + 8;
constexpr size_t kChecksumBytes = 8;

const char* KindName(SketchKind kind) {
  switch (kind) {
    case SketchKind::kCountSketch: return "count_sketch";
    case SketchKind::kCountMin: return "count_min";
    case SketchKind::kAms: return "ams";
    case SketchKind::kGnp: return "gnp";
    case SketchKind::kExactFrequency: return "exact_frequency";
    case SketchKind::kCountSketchTopK: return "count_sketch_topk";
    case SketchKind::kExactHeavyHitter: return "exact_heavy_hitter";
    case SketchKind::kOnePassHH: return "one_pass_hh";
    case SketchKind::kTwoPassHH: return "two_pass_hh";
    case SketchKind::kRecursiveGSum: return "recursive_gsum";
  }
  return "unknown";
}

LoadStatus Truncated(const std::string& what) {
  return LoadStatus::Fail(LoadError::kTruncated,
                          "blob ends inside " + what);
}

// Starts a blob in place: opens its checksummed region and writes the
// header.  FinishBlob reserves the trailer slot ByteWriter::Seal fills.
void BeginBlob(ByteWriter* w, SketchKind kind, uint64_t fingerprint) {
  w->OpenRegion();
  w->PutBytes(std::string_view(kBlobMagic, sizeof(kBlobMagic)));
  w->PutU32(kSketchFormatVersion);
  w->PutU32(static_cast<uint32_t>(kind));
  w->PutU32(0);  // flags, reserved
  w->PutU64(fingerprint);
}

void FinishBlob(ByteWriter* w) { w->CloseRegion(); }

// The checksummed regions one load opens, verified together once decoding
// stops.  A reader decodes a blob's payload before anything has checked
// its trailer, and every blob nested in it is a view into its body, so the
// recorded regions nest inside the loaded bytes and one SweepRegions pass
// checks them all: each byte is hashed once, not once per nesting level.
//
// The reported reason is what checking each region as it was opened would
// report.  Decoding stops at its first error, so every region recorded was
// opened before that error; the first region, in opening order, whose
// checksum fails is therefore the first failure of the load, and without
// one the decode error is.
class RegionChecks {
 public:
  explicit RegionChecks(std::string_view root) : root_(root) {}

  // Records the region of a blob whose header has parsed: its body (the
  // blob minus the trailer) and the trailer's stored checksum.
  void Open(std::string_view body, uint64_t stored) {
    const size_t start = static_cast<size_t>(body.data() - root_.data());
    regions_.push_back({start, start + body.size(), stored, prefix});
  }

  // Called by every reader just before it commits into its destination.
  // Only the reader of the root blob commits into the caller's sketch, so
  // only it waits for the sweep; the others fill their parent's temporaries.
  LoadStatus Settle(std::string_view blob) const {
    return blob.data() == root_.data() ? Verify() : LoadStatus::Ok();
  }

  // The load's outcome once the root reader has returned `decoded`.
  LoadStatus Resolve(const LoadStatus& decoded) const {
    if (decoded.ok()) return decoded;
    const LoadStatus checked = Verify();
    return checked.ok() ? decoded : checked;
  }

  // Prepended to the message of a region opened from now on, as the caller
  // prepends it to the decode errors of the same blob ("level 3: ").
  std::string prefix;

 private:
  struct Region {
    size_t start;  // body, as offsets into root_
    size_t end;    // the trailer starts here
    uint64_t stored;
    std::string prefix;
  };

  struct Mark {
    size_t pos;
    bool open;
    size_t region;  // index into regions_
  };

  // The first region, in opening order, whose checksum fails.
  LoadStatus Verify() const {
    // Regions arrive in opening order, which is byte order with each
    // parent before its children, so a stack of the open ones yields the
    // sweep's marks.
    std::vector<Mark> marks;
    std::vector<size_t> open;
    const auto close_until = [&](size_t limit) {
      while (!open.empty() && regions_[open.back()].end <= limit) {
        marks.push_back({regions_[open.back()].end, false, open.back()});
        open.pop_back();
      }
    };
    for (size_t i = 0; i < regions_.size(); ++i) {
      close_until(regions_[i].start);
      marks.push_back({regions_[i].start, true, i});
      open.push_back(i);
    }
    close_until(root_.size());
    size_t first_bad = regions_.size();
    SweepRegions(reinterpret_cast<const unsigned char*>(root_.data()), marks,
                 [&](const Mark& mark, uint64_t checksum) {
                   if (checksum != regions_[mark.region].stored) {
                     first_bad = std::min(first_bad, mark.region);
                   }
                 });
    if (first_bad == regions_.size()) return LoadStatus::Ok();
    return LoadStatus::Fail(LoadError::kChecksumMismatch,
                            regions_[first_bad].prefix +
                                "whole-blob checksum mismatch (corrupt bytes)");
  }

  std::string_view root_;
  std::vector<Region> regions_;
};

// Validates the envelope (magic, length, version, kind), records the
// blob's region in `checks`, and positions `reader` at the payload; the
// payload region excludes the trailing checksum, so a fully-consumed reader
// means no trailing bytes.
LoadStatus OpenBlob(std::string_view blob, SketchKind want_kind,
                    RegionChecks* checks, ByteReader* reader,
                    uint64_t* fingerprint) {
  if (blob.size() < sizeof(kBlobMagic) ||
      std::memcmp(blob.data(), kBlobMagic, sizeof(kBlobMagic)) != 0) {
    return LoadStatus::Fail(LoadError::kBadMagic,
                            "not a gstream sketch blob (bad magic)");
  }
  if (blob.size() < kBlobHeaderBytes + kChecksumBytes) {
    return Truncated("the blob header");
  }
  const std::string_view body = blob.substr(0, blob.size() - kChecksumBytes);
  ByteReader tail(blob.substr(blob.size() - kChecksumBytes));
  uint64_t stored_checksum = 0;
  tail.GetU64(&stored_checksum);
  checks->Open(body, stored_checksum);
  *reader = ByteReader(body);
  std::string_view magic;
  reader->GetBytes(sizeof(kBlobMagic), &magic);
  uint32_t version = 0, kind = 0, flags = 0;
  reader->GetU32(&version);
  reader->GetU32(&kind);
  reader->GetU32(&flags);
  reader->GetU64(fingerprint);
  if (version != kSketchFormatVersion) {
    return LoadStatus::Fail(
        LoadError::kVersionSkew,
        "format version " + std::to_string(version) + ", this build reads " +
            std::to_string(kSketchFormatVersion));
  }
  if (kind != static_cast<uint32_t>(want_kind)) {
    return LoadStatus::Fail(
        LoadError::kTypeMismatch,
        std::string("blob holds ") +
            KindName(static_cast<SketchKind>(kind)) + ", destination is " +
            KindName(want_kind));
  }
  return LoadStatus::Ok();
}

LoadStatus GeometryMismatch(const std::string& what, uint64_t got,
                            uint64_t want) {
  return LoadStatus::Fail(LoadError::kGeometryMismatch,
                          what + " " + std::to_string(got) +
                              " in blob, destination has " +
                              std::to_string(want));
}

LoadStatus FingerprintMismatch() {
  return LoadStatus::Fail(
      LoadError::kFingerprintMismatch,
      "sketch fingerprint differs from the destination's (different seed "
      "or randomness)");
}

LoadStatus ExpectDrained(const ByteReader& reader) {
  if (reader.remaining() != 0) {
    return LoadStatus::Fail(LoadError::kTrailingData,
                            std::to_string(reader.remaining()) +
                                " trailing bytes after the payload");
  }
  return LoadStatus::Ok();
}

// Reads `n` i64 counters into `out`; `out` arrives pre-sized to the
// destination geometry, so a corrupt length cannot drive allocation.
// Templated over the vector type: sketch counter arrays use the 64-byte-
// aligned allocator (util/aligned.h), and the transactional temporaries
// below must match the destination's type to move-assign on commit.
template <typename Vec>
LoadStatus ReadCounters(ByteReader* reader, const char* what, Vec* out) {
  for (int64_t& c : *out) {
    if (!reader->GetI64(&c)) return Truncated(what);
  }
  return LoadStatus::Ok();
}

}  // namespace

// Friend of every sketch.  Every Write method appends one blob to the
// caller's writer in place; nested blobs go through WriteChild.  Read
// methods restore private counter/candidate state after the envelope,
// geometry, and fingerprint checks pass; each parses into temporaries and
// commits only on full success -- for the root blob, only once `checks`
// has verified every region -- so a failed load leaves the destination
// bit-identical to its prior state.
struct SketchSerde {
  // A length-prefixed child blob written straight into the parent.
  template <typename SketchT>
  static void WriteChild(ByteWriter* w,
                         void (*write)(ByteWriter*, const SketchT&),
                         const SketchT& child) {
    const size_t length_at = w->BeginChild();
    write(w, child);
    w->EndChild(length_at);
  }

  // --- CountSketch ---------------------------------------------------------
  static void WriteCountSketch(ByteWriter* w, const CountSketch& s) {
    BeginBlob(w, SketchKind::kCountSketch, s.Fingerprint());
    w->PutU64(s.rows());
    w->PutU64(s.buckets());
    w->PutI64s(s.counters_.data(), s.counters_.size());
    FinishBlob(w);
  }

  static LoadStatus ReadCountSketch(std::string_view blob, CountSketch* dst,
                                    RegionChecks* checks) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s =
            OpenBlob(blob, SketchKind::kCountSketch, checks, &r, &fp);
        !s.ok()) {
      return s;
    }
    uint64_t rows = 0, buckets = 0;
    if (!r.GetU64(&rows) || !r.GetU64(&buckets)) {
      return Truncated("count_sketch geometry");
    }
    if (rows != dst->rows()) return GeometryMismatch("rows", rows, dst->rows());
    if (buckets != dst->buckets()) {
      return GeometryMismatch("buckets", buckets, dst->buckets());
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    AlignedI64Vector counters(dst->counters_.size());
    if (LoadStatus s = ReadCounters(&r, "count_sketch counters", &counters);
        !s.ok()) {
      return s;
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    if (LoadStatus s = checks->Settle(blob); !s.ok()) return s;
    dst->counters_ = std::move(counters);
    return LoadStatus::Ok();
  }

  // --- CountMinSketch ------------------------------------------------------
  static void WriteCountMin(ByteWriter* w, const CountMinSketch& s) {
    BeginBlob(w, SketchKind::kCountMin, s.Fingerprint());
    w->PutU64(s.options_.rows);
    w->PutU64(s.options_.buckets);
    w->PutI64s(s.counters_.data(), s.counters_.size());
    FinishBlob(w);
  }

  static LoadStatus ReadCountMin(std::string_view blob, CountMinSketch* dst,
                                 RegionChecks* checks) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kCountMin, checks, &r, &fp);
        !s.ok()) {
      return s;
    }
    uint64_t rows = 0, buckets = 0;
    if (!r.GetU64(&rows) || !r.GetU64(&buckets)) {
      return Truncated("count_min geometry");
    }
    if (rows != dst->options_.rows) {
      return GeometryMismatch("rows", rows, dst->options_.rows);
    }
    if (buckets != dst->options_.buckets) {
      return GeometryMismatch("buckets", buckets, dst->options_.buckets);
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    AlignedI64Vector counters(dst->counters_.size());
    if (LoadStatus s = ReadCounters(&r, "count_min counters", &counters);
        !s.ok()) {
      return s;
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    if (LoadStatus s = checks->Settle(blob); !s.ok()) return s;
    dst->counters_ = std::move(counters);
    return LoadStatus::Ok();
  }

  // --- AmsSketch -----------------------------------------------------------
  static void WriteAms(ByteWriter* w, const AmsSketch& s) {
    BeginBlob(w, SketchKind::kAms, s.Fingerprint());
    w->PutU64(s.options_.group_size);
    w->PutU64(s.options_.groups);
    w->PutI64s(s.sums_.data(), s.sums_.size());
    FinishBlob(w);
  }

  static LoadStatus ReadAms(std::string_view blob, AmsSketch* dst,
                            RegionChecks* checks) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kAms, checks, &r, &fp);
        !s.ok()) {
      return s;
    }
    uint64_t group_size = 0, groups = 0;
    if (!r.GetU64(&group_size) || !r.GetU64(&groups)) {
      return Truncated("ams geometry");
    }
    if (group_size != dst->options_.group_size) {
      return GeometryMismatch("group_size", group_size,
                              dst->options_.group_size);
    }
    if (groups != dst->options_.groups) {
      return GeometryMismatch("groups", groups, dst->options_.groups);
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    AlignedI64Vector sums(dst->sums_.size());
    if (LoadStatus s = ReadCounters(&r, "ams sums", &sums); !s.ok()) return s;
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    if (LoadStatus s = checks->Settle(blob); !s.ok()) return s;
    dst->sums_ = std::move(sums);
    return LoadStatus::Ok();
  }

  // --- GnpHeavyHitter ------------------------------------------------------
  static void WriteGnp(ByteWriter* w, const GnpHeavyHitter& s) {
    BeginBlob(w, SketchKind::kGnp, s.Fingerprint());
    w->PutU64(s.options_.substreams);
    w->PutU64(s.options_.trials);
    w->PutU64(static_cast<uint64_t>(s.options_.id_bits));
    w->PutI64s(s.counters_.data(), s.counters_.size());
    FinishBlob(w);
  }

  static LoadStatus ReadGnp(std::string_view blob, GnpHeavyHitter* dst,
                            RegionChecks* checks) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kGnp, checks, &r, &fp);
        !s.ok()) {
      return s;
    }
    uint64_t substreams = 0, trials = 0, id_bits = 0;
    if (!r.GetU64(&substreams) || !r.GetU64(&trials) || !r.GetU64(&id_bits)) {
      return Truncated("gnp geometry");
    }
    if (substreams != dst->options_.substreams) {
      return GeometryMismatch("substreams", substreams,
                              dst->options_.substreams);
    }
    if (trials != dst->options_.trials) {
      return GeometryMismatch("trials", trials, dst->options_.trials);
    }
    if (id_bits != static_cast<uint64_t>(dst->options_.id_bits)) {
      return GeometryMismatch("id_bits", id_bits,
                              static_cast<uint64_t>(dst->options_.id_bits));
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    std::vector<int64_t> counters(dst->counters_.size());
    if (LoadStatus s = ReadCounters(&r, "gnp counters", &counters); !s.ok()) {
      return s;
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    if (LoadStatus s = checks->Settle(blob); !s.ok()) return s;
    dst->counters_ = std::move(counters);
    return LoadStatus::Ok();
  }

  // --- ExactFrequencySketch ------------------------------------------------
  static void WriteExactFrequency(ByteWriter* w,
                                  const ExactFrequencySketch& s) {
    BeginBlob(w, SketchKind::kExactFrequency, /*fingerprint=*/0);
    // Sorted by item so equal states serialize to identical bytes (the
    // in-memory map order is not deterministic).
    std::vector<std::pair<ItemId, int64_t>> entries(s.freq_.begin(),
                                                    s.freq_.end());
    std::sort(entries.begin(), entries.end());
    w->PutU64(entries.size());
    for (const auto& [item, value] : entries) {
      w->PutU64(item);
      w->PutI64(value);
    }
    FinishBlob(w);
  }

  static LoadStatus ReadExactFrequency(std::string_view blob,
                                       ExactFrequencySketch* dst,
                                       RegionChecks* checks) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s =
            OpenBlob(blob, SketchKind::kExactFrequency, checks, &r, &fp);
        !s.ok()) {
      return s;
    }
    if (fp != 0) return FingerprintMismatch();
    uint64_t n = 0;
    if (!r.GetU64(&n)) return Truncated("exact_frequency entry count");
    // Each entry is 16 bytes; bound the count by the remaining bytes so a
    // corrupt length cannot drive allocation.
    if (n > r.remaining() / 16) return Truncated("exact_frequency entries");
    FrequencyMap freq;
    freq.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t item = 0;
      int64_t value = 0;
      if (!r.GetU64(&item) || !r.GetI64(&value)) {
        return Truncated("exact_frequency entries");
      }
      freq[item] = value;
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    if (LoadStatus s = checks->Settle(blob); !s.ok()) return s;
    dst->freq_ = std::move(freq);
    return LoadStatus::Ok();
  }

  // --- CountSketchTopK -----------------------------------------------------
  static void WriteTopK(ByteWriter* w, const CountSketchTopK& s) {
    BeginBlob(w, SketchKind::kCountSketchTopK, s.Fingerprint());
    w->PutU64(s.k());
    WriteChild(w, WriteCountSketch, s.sketch_);
    std::vector<std::pair<ItemId, int64_t>> candidates(s.candidates_.begin(),
                                                       s.candidates_.end());
    std::sort(candidates.begin(), candidates.end());
    w->PutU64(candidates.size());
    for (const auto& [item, estimate] : candidates) {
      w->PutU64(item);
      w->PutI64(estimate);
    }
    FinishBlob(w);
  }

  static LoadStatus ReadTopK(std::string_view blob, CountSketchTopK* dst,
                             RegionChecks* checks) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s =
            OpenBlob(blob, SketchKind::kCountSketchTopK, checks, &r, &fp);
        !s.ok()) {
      return s;
    }
    uint64_t k = 0;
    if (!r.GetU64(&k)) return Truncated("topk capacity");
    if (k != dst->k()) return GeometryMismatch("k", k, dst->k());
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    std::string_view inner;
    if (!r.GetBlob(&inner)) return Truncated("topk inner sketch blob");
    CountSketch sketch = dst->sketch_;
    if (LoadStatus s = ReadCountSketch(inner, &sketch, checks); !s.ok()) {
      return s;
    }
    uint64_t n = 0;
    if (!r.GetU64(&n)) return Truncated("topk candidate count");
    if (n > r.remaining() / 16) return Truncated("topk candidates");
    CandidateTable candidates;
    candidates.Reserve(std::max<size_t>(static_cast<size_t>(n), 2 * k + 1));
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t item = 0;
      int64_t estimate = 0;
      if (!r.GetU64(&item) || !r.GetI64(&estimate)) {
        return Truncated("topk candidates");
      }
      candidates.Assign(item, estimate);
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    if (LoadStatus s = checks->Settle(blob); !s.ok()) return s;
    dst->sketch_ = std::move(sketch);
    dst->candidates_ = std::move(candidates);
    return LoadStatus::Ok();
  }

  // --- ExactHeavyHitterSketch ----------------------------------------------
  static void WriteExactHH(ByteWriter* w, const ExactHeavyHitterSketch& s) {
    BeginBlob(w, SketchKind::kExactHeavyHitter, /*fingerprint=*/0);
    WriteChild(w, WriteExactFrequency, s.freq_);
    FinishBlob(w);
  }

  static LoadStatus ReadExactHH(std::string_view blob,
                                ExactHeavyHitterSketch* dst,
                                RegionChecks* checks) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s =
            OpenBlob(blob, SketchKind::kExactHeavyHitter, checks, &r, &fp);
        !s.ok()) {
      return s;
    }
    if (fp != 0) return FingerprintMismatch();
    std::string_view inner;
    if (!r.GetBlob(&inner)) return Truncated("exact_hh inner blob");
    ExactFrequencySketch freq = dst->freq_;
    if (LoadStatus s = ReadExactFrequency(inner, &freq, checks); !s.ok()) {
      return s;
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    if (LoadStatus s = checks->Settle(blob); !s.ok()) return s;
    dst->freq_ = std::move(freq);
    return LoadStatus::Ok();
  }

  // --- OnePassHeavyHitter --------------------------------------------------
  static void WriteOnePass(ByteWriter* w, const OnePassHeavyHitter& s) {
    BeginBlob(w, SketchKind::kOnePassHH, s.Fingerprint());
    WriteChild(w, WriteTopK, s.tracker_);
    WriteChild(w, WriteAms, s.ams_);
    FinishBlob(w);
  }

  static LoadStatus ReadOnePass(std::string_view blob, OnePassHeavyHitter* dst,
                                RegionChecks* checks) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kOnePassHH, checks, &r, &fp);
        !s.ok()) {
      return s;
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    std::string_view tracker_blob, ams_blob;
    if (!r.GetBlob(&tracker_blob)) return Truncated("one_pass_hh tracker");
    if (!r.GetBlob(&ams_blob)) return Truncated("one_pass_hh ams");
    CountSketchTopK tracker = dst->tracker_;
    AmsSketch ams = dst->ams_;
    if (LoadStatus s = ReadTopK(tracker_blob, &tracker, checks); !s.ok()) {
      return s;
    }
    if (LoadStatus s = ReadAms(ams_blob, &ams, checks); !s.ok()) return s;
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    if (LoadStatus s = checks->Settle(blob); !s.ok()) return s;
    dst->tracker_ = std::move(tracker);
    dst->ams_ = std::move(ams);
    return LoadStatus::Ok();
  }

  // --- TwoPassHeavyHitter --------------------------------------------------
  static void WriteTwoPass(ByteWriter* w, const TwoPassHeavyHitter& s) {
    BeginBlob(w, SketchKind::kTwoPassHH, s.Fingerprint());
    w->PutU32(static_cast<uint32_t>(s.current_pass_));
    WriteChild(w, WriteTopK, s.tracker_);
    w->PutU64(s.candidate_ids_.size());
    for (const ItemId id : s.candidate_ids_) w->PutU64(id);
    w->PutI64s(s.exact_counts_.data(), s.exact_counts_.size());
    FinishBlob(w);
  }

  static LoadStatus ReadTwoPass(std::string_view blob, TwoPassHeavyHitter* dst,
                                RegionChecks* checks) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s = OpenBlob(blob, SketchKind::kTwoPassHH, checks, &r, &fp);
        !s.ok()) {
      return s;
    }
    if (fp != dst->Fingerprint()) return FingerprintMismatch();
    uint32_t pass = 0;
    if (!r.GetU32(&pass)) return Truncated("two_pass_hh pass");
    if (pass != 1 && pass != 2) {
      return LoadStatus::Fail(LoadError::kDomainError,
                              "two_pass_hh pass " + std::to_string(pass) +
                                  " outside {1, 2}");
    }
    std::string_view tracker_blob;
    if (!r.GetBlob(&tracker_blob)) return Truncated("two_pass_hh tracker");
    CountSketchTopK tracker = dst->tracker_;
    if (LoadStatus s = ReadTopK(tracker_blob, &tracker, checks); !s.ok()) {
      return s;
    }
    uint64_t n = 0;
    if (!r.GetU64(&n)) return Truncated("two_pass_hh candidate count");
    if (n > r.remaining() / 16) return Truncated("two_pass_hh candidates");
    std::vector<ItemId> ids(static_cast<size_t>(n));
    std::vector<int64_t> counts(static_cast<size_t>(n));
    for (ItemId& id : ids) {
      if (!r.GetU64(&id)) return Truncated("two_pass_hh candidate ids");
    }
    for (int64_t& c : counts) {
      if (!r.GetI64(&c)) return Truncated("two_pass_hh exact counts");
    }
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    if (LoadStatus s = checks->Settle(blob); !s.ok()) return s;
    dst->current_pass_ = static_cast<int>(pass);
    dst->tracker_ = std::move(tracker);
    dst->candidate_ids_ = std::move(ids);
    dst->exact_counts_ = std::move(counts);
    return LoadStatus::Ok();
  }

  // --- RecursiveGSum -------------------------------------------------------
  static void WriteRecursive(ByteWriter* w, const RecursiveGSum& stack) {
    BeginBlob(w, SketchKind::kRecursiveGSum, stack.Fingerprint());
    w->PutU64(stack.subsampler_.Fingerprint());
    w->PutU64(stack.sketches_.size());
    for (const auto& sketch : stack.sketches_) {
      w->PutU32(static_cast<uint32_t>(KindOfHeavyHitter(*sketch)));
      WriteChild(w, WriteHeavyHitter, *sketch);
    }
    FinishBlob(w);
  }

  static LoadStatus ReadRecursive(std::string_view blob, RecursiveGSum* dst,
                                  RegionChecks* checks) {
    ByteReader r{std::string_view()};
    uint64_t fp = 0;
    if (LoadStatus s =
            OpenBlob(blob, SketchKind::kRecursiveGSum, checks, &r, &fp);
        !s.ok()) {
      return s;
    }
    uint64_t sub_fp = 0, n_levels = 0;
    if (!r.GetU64(&sub_fp) || !r.GetU64(&n_levels)) {
      return Truncated("recursive_gsum header");
    }
    if (n_levels != dst->sketches_.size()) {
      return GeometryMismatch("levels", n_levels, dst->sketches_.size());
    }
    if (sub_fp != dst->subsampler_.Fingerprint() || fp != dst->Fingerprint()) {
      return FingerprintMismatch();
    }
    // Per-level deserialization runs on clones so a failure at level l
    // leaves levels 0..l-1 of the destination untouched.
    std::vector<std::unique_ptr<GHeavyHitterSketch>> levels;
    levels.reserve(dst->sketches_.size());
    for (size_t l = 0; l < dst->sketches_.size(); ++l) {
      uint32_t kind = 0;
      std::string_view level_blob;
      if (!r.GetU32(&kind) || !r.GetBlob(&level_blob)) {
        return Truncated("recursive_gsum level " + std::to_string(l));
      }
      std::unique_ptr<GHeavyHitterSketch> level = dst->sketches_[l]->Clone();
      if (kind != static_cast<uint32_t>(KindOfHeavyHitter(*level))) {
        return LoadStatus::Fail(
            LoadError::kTypeMismatch,
            "level " + std::to_string(l) + " holds " +
                KindName(static_cast<SketchKind>(kind)) +
                ", destination level is " +
                KindName(KindOfHeavyHitter(*level)));
      }
      checks->prefix = "level " + std::to_string(l) + ": ";
      if (LoadStatus s = ReadHeavyHitter(level_blob, level.get(), checks);
          !s.ok()) {
        s.message = checks->prefix + s.message;
        return s;
      }
      levels.push_back(std::move(level));
    }
    checks->prefix.clear();
    if (LoadStatus s = ExpectDrained(r); !s.ok()) return s;
    if (LoadStatus s = checks->Settle(blob); !s.ok()) return s;
    dst->sketches_ = std::move(levels);
    return LoadStatus::Ok();
  }

  static SketchKind KindOfHeavyHitter(const GHeavyHitterSketch& sketch) {
    if (dynamic_cast<const OnePassHeavyHitter*>(&sketch) != nullptr) {
      return SketchKind::kOnePassHH;
    }
    if (dynamic_cast<const TwoPassHeavyHitter*>(&sketch) != nullptr) {
      return SketchKind::kTwoPassHH;
    }
    if (dynamic_cast<const GnpHeavyHitter*>(&sketch) != nullptr) {
      return SketchKind::kGnp;
    }
    if (dynamic_cast<const ExactHeavyHitterSketch*>(&sketch) != nullptr) {
      return SketchKind::kExactHeavyHitter;
    }
    std::fprintf(stderr,
                 "sketch_io: unknown GHeavyHitterSketch subclass cannot be "
                 "serialized\n");
    std::abort();
  }

  // The polymorphic reader behind DeserializeHeavyHitter and the levels of
  // ReadRecursive.
  static LoadStatus ReadHeavyHitter(std::string_view blob,
                                    GHeavyHitterSketch* dst,
                                    RegionChecks* checks) {
    if (auto* s = dynamic_cast<OnePassHeavyHitter*>(dst)) {
      return ReadOnePass(blob, s, checks);
    }
    if (auto* s = dynamic_cast<TwoPassHeavyHitter*>(dst)) {
      return ReadTwoPass(blob, s, checks);
    }
    if (auto* s = dynamic_cast<GnpHeavyHitter*>(dst)) {
      return ReadGnp(blob, s, checks);
    }
    if (auto* s = dynamic_cast<ExactHeavyHitterSketch*>(dst)) {
      return ReadExactHH(blob, s, checks);
    }
    return LoadStatus::Fail(
        LoadError::kTypeMismatch,
        "destination is a GHeavyHitterSketch subclass the wire format does "
        "not know");
  }

  // The one polymorphic writer: SerializeHeavyHitter and the levels of
  // WriteRecursive both dispatch here.
  static void WriteHeavyHitter(ByteWriter* w, const GHeavyHitterSketch& s) {
    switch (KindOfHeavyHitter(s)) {
      case SketchKind::kOnePassHH:
        WriteOnePass(w, static_cast<const OnePassHeavyHitter&>(s));
        return;
      case SketchKind::kTwoPassHH:
        WriteTwoPass(w, static_cast<const TwoPassHeavyHitter&>(s));
        return;
      case SketchKind::kGnp:
        WriteGnp(w, static_cast<const GnpHeavyHitter&>(s));
        return;
      default:
        WriteExactHH(w, static_cast<const ExactHeavyHitterSketch&>(s));
        return;
    }
  }
};

namespace {

// Writes one sketch into a fresh writer and seals it.
template <typename SketchT>
std::string Sealed(void (*write)(ByteWriter*, const SketchT&),
                   const SketchT& sketch) {
  ByteWriter w;
  write(&w, sketch);
  return w.Seal();
}

// Reads one blob into `dst`: the reader decodes, the blob's regions are
// verified in one sweep, and only then does the root reader commit.
template <typename SketchT>
LoadStatus Loaded(LoadStatus (*read)(std::string_view, SketchT*,
                                     RegionChecks*),
                  std::string_view blob, SketchT* dst) {
  RegionChecks checks(blob);
  return checks.Resolve(read(blob, dst, &checks));
}

}  // namespace

}  // namespace persist

// ---------------------------------------------------------------------------
// Public surface: thin delegation into the friend serde.
// ---------------------------------------------------------------------------

std::string SerializeSketch(const CountSketch& sketch) {
  return persist::Sealed(persist::SketchSerde::WriteCountSketch, sketch);
}
std::string SerializeSketch(const CountMinSketch& sketch) {
  return persist::Sealed(persist::SketchSerde::WriteCountMin, sketch);
}
std::string SerializeSketch(const AmsSketch& sketch) {
  return persist::Sealed(persist::SketchSerde::WriteAms, sketch);
}
std::string SerializeSketch(const GnpHeavyHitter& sketch) {
  return persist::Sealed(persist::SketchSerde::WriteGnp, sketch);
}
std::string SerializeSketch(const ExactFrequencySketch& sketch) {
  return persist::Sealed(persist::SketchSerde::WriteExactFrequency, sketch);
}
std::string SerializeSketch(const CountSketchTopK& sketch) {
  return persist::Sealed(persist::SketchSerde::WriteTopK, sketch);
}
std::string SerializeSketch(const ExactHeavyHitterSketch& sketch) {
  return persist::Sealed(persist::SketchSerde::WriteExactHH, sketch);
}
std::string SerializeSketch(const OnePassHeavyHitter& sketch) {
  return persist::Sealed(persist::SketchSerde::WriteOnePass, sketch);
}
std::string SerializeSketch(const TwoPassHeavyHitter& sketch) {
  return persist::Sealed(persist::SketchSerde::WriteTwoPass, sketch);
}
std::string SerializeSketch(const RecursiveGSum& stack) {
  return persist::Sealed(persist::SketchSerde::WriteRecursive, stack);
}

LoadStatus DeserializeSketch(std::string_view blob, CountSketch* dst) {
  return persist::Loaded(persist::SketchSerde::ReadCountSketch, blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, CountMinSketch* dst) {
  return persist::Loaded(persist::SketchSerde::ReadCountMin, blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, AmsSketch* dst) {
  return persist::Loaded(persist::SketchSerde::ReadAms, blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, GnpHeavyHitter* dst) {
  return persist::Loaded(persist::SketchSerde::ReadGnp, blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob,
                             ExactFrequencySketch* dst) {
  return persist::Loaded(persist::SketchSerde::ReadExactFrequency, blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, CountSketchTopK* dst) {
  return persist::Loaded(persist::SketchSerde::ReadTopK, blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob,
                             ExactHeavyHitterSketch* dst) {
  return persist::Loaded(persist::SketchSerde::ReadExactHH, blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, OnePassHeavyHitter* dst) {
  return persist::Loaded(persist::SketchSerde::ReadOnePass, blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, TwoPassHeavyHitter* dst) {
  return persist::Loaded(persist::SketchSerde::ReadTwoPass, blob, dst);
}
LoadStatus DeserializeSketch(std::string_view blob, RecursiveGSum* dst) {
  return persist::Loaded(persist::SketchSerde::ReadRecursive, blob, dst);
}

std::string SerializeHeavyHitter(const GHeavyHitterSketch& sketch) {
  return persist::Sealed(persist::SketchSerde::WriteHeavyHitter, sketch);
}

LoadStatus DeserializeHeavyHitter(std::string_view blob,
                                  GHeavyHitterSketch* dst) {
  return persist::Loaded(persist::SketchSerde::ReadHeavyHitter, blob, dst);
}

std::optional<SketchKind> PeekSketchKind(std::string_view blob) {
  if (blob.size() < 12) return std::nullopt;
  if (std::memcmp(blob.data(), "GSKB", 4) != 0) return std::nullopt;
  persist::ByteReader r(blob.substr(4));
  uint32_t version = 0, kind = 0;
  r.GetU32(&version);
  r.GetU32(&kind);
  return static_cast<SketchKind>(kind);
}

// ---------------------------------------------------------------------------
// Crash-consistent file I/O.
// ---------------------------------------------------------------------------

namespace {

bool FsyncFd(int fd) { return ::fsync(fd) == 0; }

// fsync the directory containing `path` so the rename itself is durable.
bool FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = FsyncFd(fd);
  ::close(fd);
  return ok;
}

}  // namespace

const char* WriteFaultName(WriteFault fault) {
  switch (fault) {
    case WriteFault::kNone: return "none";
    case WriteFault::kCrashBeforeTmp: return "before-tmp";
    case WriteFault::kCrashMidTmp: return "mid-tmp";
    case WriteFault::kCrashBeforeRename: return "before-rename";
    case WriteFault::kCrashBeforeDirFsync: return "before-dirsync";
  }
  return "unknown";
}

bool WriteFileAtomic(const std::string& path, std::string_view bytes,
                     WriteFault fault) {
  obs::Registry& registry = obs::Registry::Get();
  obs::ScopedTimer timer(
      registry.GetHistogram("persist/atomic_write_ns"));
  if (fault == WriteFault::kCrashBeforeTmp) return false;
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const std::string_view to_write =
      fault == WriteFault::kCrashMidTmp ? bytes.substr(0, bytes.size() / 2)
                                        : bytes;
  // A real I/O failure removes the tmp file; injected faults leave it,
  // because they model a crash, which cleans up nothing.
  const auto fail = [&tmp] {
    ::unlink(tmp.c_str());
    return false;
  };
  size_t written = 0;
  while (written < to_write.size()) {
    const ssize_t n =
        ::write(fd, to_write.data() + written, to_write.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return fail();
    }
    written += static_cast<size_t>(n);
  }
  if (fault == WriteFault::kCrashMidTmp) {
    // A crash mid-write: the tmp file holds a prefix, never fsynced, never
    // renamed.  The target path is untouched.
    ::close(fd);
    return false;
  }
  const bool synced = FsyncFd(fd);
  ::close(fd);
  if (!synced) return fail();
  if (fault == WriteFault::kCrashBeforeRename) return false;
  if (::rename(tmp.c_str(), path.c_str()) != 0) return fail();
  // A crash here (after the rename, before the directory fsync) leaves the
  // NEW complete file at `path`, but the rename may not survive a power
  // cut -- the one phase where "return false" coexists with a loadable new
  // image on the live filesystem.
  if (fault == WriteFault::kCrashBeforeDirFsync) return false;
  // Persist the rename: without the directory fsync a crash can roll the
  // directory entry back to the old file even though the data blocks of
  // the new one are on disk.
  if (!FsyncParentDir(path)) return false;
  registry.GetCounter("persist/files_written")->Increment();
  registry.GetCounter("persist/bytes_written")->Add(bytes.size());
  return true;
}

std::optional<std::string> ReadFileBytes(const std::string& path,
                                         LoadStatus* status) {
  std::string bytes;
  const FileReadResult read = ReadWholeFile(path, &bytes);
  if (!read.ok()) {
    const std::string where = read.step == FileReadResult::kOpen
                                  ? "cannot open " + path
                                  : "read error on " + path;
    ReportStatus(LoadStatus::Fail(LoadError::kIoError,
                                  where + ": " + std::strerror(read.err) +
                                      " (errno " + std::to_string(read.err) +
                                      ")"),
                 status);
    return std::nullopt;
  }
  ReportStatus(LoadStatus::Ok(), status);
  return bytes;
}

}  // namespace gstream
