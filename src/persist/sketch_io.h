// Durable sketches: a versioned binary wire format for every mergeable
// sketch in the library, including whole RecursiveGSum Theorem-13 stacks.
//
// Blob layout (little-endian, docs/persistence.md has the full story):
//
//   bytes 0-3   magic "GSKB"
//   u32         format version (kSketchFormatVersion)
//   u32         sketch kind tag (SketchKind)
//   u32         flags (0, reserved)
//   u64         Fingerprint() of the serialized sketch
//   ...         kind-specific payload: geometry words, then counter state
//               (composites nest full length-prefixed child blobs)
//   u64         FNV-1a checksum of every preceding byte
//
// What is serialized is exactly the *state* -- counters, sums, candidate
// sets, pass position -- never the hash coefficients.  A loader must
// construct the destination sketch from the same seed and geometry the
// writer used (the checkpoint/merge workflows already require shared
// randomness for MergeFrom); the wire fingerprint is checked against the
// destination's, so a blob can only land in a sketch that drew identical
// randomness.  This keeps blobs small, keeps the fingerprint guard as the
// single source of merge-compatibility truth, and makes "deserialize into
// the wrong sketch" a detected error rather than silent corruption.
//
// Deserialize is a total function over arbitrary bytes: wrong magic,
// version skew, kind/fingerprint/geometry mismatch, truncation, bit flips
// (whole-blob checksum), and trailing garbage all come back as a clean
// LoadStatus with the precise reason, and the destination sketch is left
// untouched on every failure path.  A load decodes first and then checks
// the checksums of every nested blob it opened in one sweep, reporting the
// reason a blob-by-blob check would (docs/persistence.md).
// tests/persist/sketch_io_test.cc sweeps byte flips over every position and
// truncations at every length; sketch_io_nested_test.cc pins the reasons
// for corruption inside nested blobs.

#ifndef GSTREAM_PERSIST_SKETCH_IO_H_
#define GSTREAM_PERSIST_SKETCH_IO_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace gstream {

class CountSketch;
class CountSketchTopK;
class CountMinSketch;
class AmsSketch;
class GnpHeavyHitter;
class ExactFrequencySketch;
class ExactHeavyHitterSketch;
class OnePassHeavyHitter;
class TwoPassHeavyHitter;
class RecursiveGSum;
class GHeavyHitterSketch;

// Wire type tags.  Append-only: never renumber a released tag.
enum class SketchKind : uint32_t {
  kCountSketch = 1,
  kCountMin = 2,
  kAms = 3,
  kGnp = 4,
  kExactFrequency = 5,
  kCountSketchTopK = 6,
  kExactHeavyHitter = 7,
  kOnePassHH = 8,
  kTwoPassHH = 9,
  kRecursiveGSum = 10,
};

inline constexpr uint32_t kSketchFormatVersion = 1;

// ---------------------------------------------------------------------------
// Serialize / Deserialize, one overload pair per mergeable sketch.
// Deserialize requires `dst` constructed with the writer's seed and
// geometry; on any failure `dst` is unchanged and the status says why.
// ---------------------------------------------------------------------------

// Serialize writes into *out, replacing its contents but keeping its
// capacity, so a caller that serializes the same sketch repeatedly (the
// checkpoint capture) allocates only when the blob outgrows the buffer.
void SerializeSketch(const CountSketch& sketch, std::string* out);
void SerializeSketch(const CountMinSketch& sketch, std::string* out);
void SerializeSketch(const AmsSketch& sketch, std::string* out);
void SerializeSketch(const GnpHeavyHitter& sketch, std::string* out);
void SerializeSketch(const ExactFrequencySketch& sketch, std::string* out);
void SerializeSketch(const CountSketchTopK& sketch, std::string* out);
void SerializeSketch(const ExactHeavyHitterSketch& sketch, std::string* out);
void SerializeSketch(const OnePassHeavyHitter& sketch, std::string* out);
void SerializeSketch(const TwoPassHeavyHitter& sketch, std::string* out);
void SerializeSketch(const RecursiveGSum& stack, std::string* out);

// The blob as a new string.
template <typename SketchT>
std::string SerializeSketch(const SketchT& sketch) {
  std::string blob;
  SerializeSketch(sketch, &blob);
  return blob;
}

LoadStatus DeserializeSketch(std::string_view blob, CountSketch* dst);
LoadStatus DeserializeSketch(std::string_view blob, CountMinSketch* dst);
LoadStatus DeserializeSketch(std::string_view blob, AmsSketch* dst);
LoadStatus DeserializeSketch(std::string_view blob, GnpHeavyHitter* dst);
LoadStatus DeserializeSketch(std::string_view blob, ExactFrequencySketch* dst);
LoadStatus DeserializeSketch(std::string_view blob, CountSketchTopK* dst);
LoadStatus DeserializeSketch(std::string_view blob,
                             ExactHeavyHitterSketch* dst);
LoadStatus DeserializeSketch(std::string_view blob, OnePassHeavyHitter* dst);
LoadStatus DeserializeSketch(std::string_view blob, TwoPassHeavyHitter* dst);
LoadStatus DeserializeSketch(std::string_view blob, RecursiveGSum* dst);

// Polymorphic dispatch over the GHeavyHitterSketch hierarchy, used for the
// per-level sketches of a RecursiveGSum stack.  Serialize aborts on a
// subclass the wire format does not know (a programming error, like
// merging unrelated types); Deserialize reports kTypeMismatch when the
// blob's tag does not name dst's dynamic type.
std::string SerializeHeavyHitter(const GHeavyHitterSketch& sketch);
LoadStatus DeserializeHeavyHitter(std::string_view blob,
                                  GHeavyHitterSketch* dst);

// The SketchKind a blob claims to hold, if its header parses at all --
// lets tools name what is in a file without knowing the destination type.
std::optional<SketchKind> PeekSketchKind(std::string_view blob);

// CHECK-style wrapper mirroring the in-memory MergeFrom contract: feeding
// an incompatible blob (wrong version, kind, fingerprint, geometry, or a
// corrupt file) aborts with the load reason.  The cross-process reducer
// uses this so "merge incompatible serialized sketches" dies exactly like
// "merge incompatible in-memory sketches"; tests/persist/ death-tests it.
template <typename SketchT>
void DeserializeSketchOrDie(std::string_view blob, SketchT* dst) {
  const LoadStatus status = DeserializeSketch(blob, dst);
  if (!status.ok()) {
    std::fprintf(stderr, "DeserializeSketchOrDie: %s: %s\n",
                 LoadErrorName(status.error), status.message.c_str());
    std::abort();
  }
}

// ---------------------------------------------------------------------------
// Crash-consistent file I/O.
// ---------------------------------------------------------------------------

// Kill points for the write-tmp-fsync-rename sequence, modeling a crash at
// each phase; the torn-checkpoint tests inject every one and assert the
// previous file version (or a clean absence) survives.  kNone is the
// production path.
enum class WriteFault {
  kNone,            // full sequence: tmp write, fsync, rename, dir fsync
  kCrashBeforeTmp,  // die before creating the tmp file
  kCrashMidTmp,     // tmp holds a prefix of the bytes, no rename
  kCrashBeforeRename,  // tmp complete and fsynced, rename never happens
  // Rename succeeded but the parent directory was never fsynced: the NEW
  // complete file is in place (and loadable), but the rename itself is
  // not yet durable -- after a power cut the directory may still resolve
  // to the old version.  Either way, never a torn mix.
  kCrashBeforeDirFsync,
};

// Stable lowercase phase name ("none", "before-tmp", "mid-tmp",
// "before-rename", "before-dirsync") -- the `--fault=` spelling of
// tools/ckpt_ingest and the phase reported in its --stats=json output.
const char* WriteFaultName(WriteFault fault);

// Atomically replaces `path` with `bytes`: writes `path`.tmp, fsyncs it,
// renames over `path`, and fsyncs the parent directory, so a crash at any
// instant leaves either the old complete file or the new complete file --
// never a torn mix.  Returns false on I/O error (and on any injected
// fault, since the sequence did not complete).  A failed write, fsync or
// rename removes `path`.tmp; an injected fault leaves it, as a crash
// would.
bool WriteFileAtomic(const std::string& path, std::string_view bytes,
                     WriteFault fault = WriteFault::kNone);
// The same for a file given as pieces written in order (the checkpoint
// writer's header, shard blobs and trailer), so they are never joined into
// one buffer.  kCrashMidTmp leaves a prefix of their concatenation.
bool WriteFileAtomic(const std::string& path,
                     std::span<const std::string_view> parts,
                     WriteFault fault = WriteFault::kNone);

// Reads a whole file; nullopt + status on open/read failure.
std::optional<std::string> ReadFileBytes(const std::string& path,
                                         LoadStatus* status = nullptr);

// Serialize + WriteFileAtomic.
template <typename SketchT>
bool SaveSketch(const SketchT& sketch, const std::string& path) {
  return WriteFileAtomic(path, SerializeSketch(sketch));
}

// ReadFileBytes + Deserialize.
template <typename SketchT>
LoadStatus LoadSketch(const std::string& path, SketchT* dst) {
  LoadStatus status;
  const std::optional<std::string> bytes = ReadFileBytes(path, &status);
  if (!bytes.has_value()) return status;
  return DeserializeSketch(*bytes, dst);
}

namespace persist {

// FNV-1a 64-bit over a byte range: the whole-blob checksum.  Not
// cryptographic -- it detects corruption (bit rot, torn writes), not
// adversaries, which is the contract crash consistency needs.
uint64_t Checksum64(std::string_view bytes);
// Continues a checksum over bytes that follow a prefix with checksum
// `prefix`: Checksum64(b, Checksum64(a)) == Checksum64(a + b), so a file
// written in pieces is checksummed without joining them.
uint64_t Checksum64(std::string_view bytes, uint64_t prefix);

// Little-endian writer shared by the sketch and checkpoint formats.  A
// whole image -- a RecursiveGSum blob with every nested level, sketch and
// counter blob, or a GCKP file -- is written into this one buffer:
//
//   OpenRegion()   marks where a checksummed region (one blob) starts;
//   CloseRegion()  reserves the region's 8-byte trailer slot after it;
//   BeginChild()   writes a placeholder u64 length for a nested blob and
//                  returns its offset; EndChild(offset) back-patches the
//                  length once the child's bytes (trailer included) are
//                  written, so a child is never built separately and
//                  copied into its parent;
//   Seal()         fills every trailer and hands over the bytes.
//
// Regions nest and must be balanced.  Seal() is one sweep over the buffer:
// between consecutive marks it runs the FNV-1a chains of every open region
// side by side (independent multiply chains overlap, so up to four cost
// the time of one), and when a region closes it stores the chain's value
// in the trailer slot before the enclosing chains go on to hash those
// bytes.  Each trailer therefore equals Checksum64 of its region's bytes,
// the value a reader verifies.
class ByteWriter {
 public:
  ByteWriter() = default;
  // Writes into `buffer`'s storage: its contents are dropped, its capacity
  // kept (Seal() hands the same storage back).
  explicit ByteWriter(std::string buffer) : buf_(std::move(buffer)) {
    buf_.clear();
  }

  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutI64s(const int64_t* v, size_t n);
  void PutBytes(std::string_view bytes);

  size_t BeginChild();
  void EndChild(size_t length_at);

  void OpenRegion();
  void CloseRegion();

  size_t size() const { return buf_.size(); }
  std::string Seal();

 private:
  struct Mark {
    size_t pos;  // region start (open) or trailer slot (close)
    bool open;
  };

  std::string buf_;
  std::vector<Mark> marks_;  // in call order, so positions never decrease
  size_t depth_ = 0;  // regions open
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  bool GetBytes(size_t n, std::string_view* out);
  // Length-prefixed child blob (bounded by the remaining bytes).
  bool GetBlob(std::string_view* out);

  size_t remaining() const { return bytes_.size() - pos_; }
  size_t pos() const { return pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace persist
}  // namespace gstream

#endif  // GSTREAM_PERSIST_SKETCH_IO_H_
