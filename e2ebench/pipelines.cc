#include "pipelines.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/gsum.h"
#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "engine/sharded_ingestor.h"
#include "gfunc/catalog.h"
#include "gfunc/envelope.h"
#include "inputs.h"
#include "obs/json_min.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/checkpoint.h"
#include "persist/sketch_io.h"
#include "sketch/ams.h"
#include "sketch/count_sketch.h"
#include "sketch/subsampler.h"
#include "stream/stream_io.h"
#include "tracer.h"
#include "util/bit.h"
#include "util/logging.h"
#include "util/random.h"

namespace e2ebench {
namespace {

using gstream::GFunction;
using gstream::GFunctionPtr;
using gstream::IngestEngineOptions;
using gstream::IngestStats;
using gstream::PartitionPolicy;
using gstream::RecursiveGSum;
using gstream::Stream;
using gstream::Update;
using gstream::obs::HistogramSnapshot;
using gstream::obs::RegistrySnapshot;
using StackIngestor = gstream::ShardedIngestor<RecursiveGSum>;

constexpr size_t kChunk = gstream::kStreamBatchSize;
// Updates per producer Submit call in clicks_mpsc (8 engine chunks): the
// producer waits for each call to return before making the next.
constexpr size_t kSubmitSlice = 8 * kChunk;
// Checkpoint interval of replay_ckpt at full scale: 16 checkpoints over its
// ~1M-update log.
constexpr uint64_t kCheckpointInterval = 128 * kChunk;
constexpr size_t kMinIterations = 3;
constexpr size_t kMinTracedPairs = 2;
constexpr size_t kSetupSamples = 41;
constexpr size_t kSetupsPerPass = 3;
constexpr size_t kRecoveriesPerPass = 2;
constexpr size_t kTracedRecoveries = 9;
constexpr int kEstimateRepeats = 3;
// Traced runs fail their reconciliation check when the pipeline's
// top-level spans leave more than this share of its wall time uncovered.
constexpr double kReconcileTolerance = 0.05;
constexpr size_t kMaxNamedFailures = 20;

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Quantile with linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// The highest of p99.9 / p99 / p95 / p90 that has at least ten samples
// beyond it.
double TailQuantile(size_t samples) {
  for (double q : {0.999, 0.99, 0.95, 0.9}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

std::string Fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

// Attempted and failed operations of a run, with a name for each failure.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Ops(uint64_t n, uint64_t failed_n, const std::string& what) {
    attempted += n;
    if (failed_n > 0) Fail(failed_n, what);
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(1, what);
  }
  void Fail(uint64_t n, const std::string& what) {
    failed += n;
    if (failures.size() < kMaxNamedFailures) failures.push_back(what);
  }
  void Merge(const Ledger& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& f : other.failures) {
      if (failures.size() < kMaxNamedFailures) failures.push_back(f);
    }
  }
};

// ---------------------------------------------------------------------------
// Registry reads.
// ---------------------------------------------------------------------------

uint64_t CounterOf(const RegistrySnapshot& r, const std::string& name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

int64_t GaugeOf(const RegistrySnapshot& r, const std::string& name) {
  const auto it = r.gauges.find(name);
  return it == r.gauges.end() ? 0 : it->second;
}

HistogramSnapshot HistogramOf(const RegistrySnapshot& r,
                              const std::string& name) {
  const auto it = r.histograms.find(name);
  return it == r.histograms.end() ? HistogramSnapshot{} : it->second;
}

void ResetRegistry() { gstream::obs::Registry::Get().ResetAll(); }

RegistrySnapshot ReadRegistry() {
  return gstream::obs::Registry::Get().Snapshot();
}

// What the engine did with one pipeline's updates.
struct EngineAccount {
  uint64_t submitted = 0;
  uint64_t applied = 0;
  uint64_t shed = 0;
  uint64_t timeouts = 0;
  uint64_t stalls = 0;
  uint64_t stall_ns = 0;
  uint64_t ring_highwater = 0;
  bool error = false;
  std::string error_detail;
  std::vector<uint64_t> shard_updates;

  double ShardSkew() const {
    if (shard_updates.empty()) return 0.0;
    uint64_t max = 0, sum = 0;
    for (uint64_t u : shard_updates) {
      max = std::max(max, u);
      sum += u;
    }
    return sum == 0 ? 0.0
                    : static_cast<double>(max) * shard_updates.size() /
                          static_cast<double>(sum);
  }
};

EngineAccount AccountFromStats(const IngestStats& stats,
                               const gstream::EngineError& error) {
  EngineAccount a;
  a.submitted = stats.updates_submitted;
  a.applied = stats.updates_applied;
  a.shed = stats.updates_shed;
  a.timeouts = stats.deadline_timeouts;
  a.stalls = stats.producer_stalls;
  a.stall_ns = stats.producer_stall_ns;
  for (uint64_t h : stats.shard_ring_highwater) {
    a.ring_highwater = std::max(a.ring_highwater, h);
  }
  a.shard_updates = stats.shard_updates;
  a.error = !error.ok();
  if (a.error) {
    a.error_detail = std::string(gstream::EngineErrorCodeName(error.code)) +
                     ": " + error.detail;
  }
  return a;
}

// For pipelines whose engine is internal (GSumEstimator::Process): the
// engine mirrors its IngestStats into the registry when it closes.
EngineAccount AccountFromRegistry(const RegistrySnapshot& r, size_t shards,
                                  size_t producers) {
  EngineAccount a;
  a.submitted = CounterOf(r, "engine/updates_submitted");
  a.applied = CounterOf(r, "engine/updates_applied");
  a.shed = CounterOf(r, "engine/updates_shed");
  a.timeouts = CounterOf(r, "engine/deadline_timeouts");
  a.stalls = CounterOf(r, "engine/producer_stalls");
  for (size_t p = 0; p < producers; ++p) {
    a.stall_ns += CounterOf(
        r, "engine/producer/" + std::to_string(p) + "/stall_ns_total");
  }
  for (size_t s = 0; s < shards; ++s) {
    const std::string prefix = "engine/shard/" + std::to_string(s) + "/";
    a.shard_updates.push_back(CounterOf(r, prefix + "updates"));
    a.ring_highwater =
        std::max<uint64_t>(a.ring_highwater,
                           static_cast<uint64_t>(std::max<int64_t>(
                               0, GaugeOf(r, prefix + "ring_highwater"))));
  }
  a.error = CounterOf(r, "engine/errors") != 0;
  if (a.error) a.error_detail = "engine/errors counter nonzero";
  return a;
}

// Durations of the library's own engine spans ("engine/submit",
// "engine/close", ...) recorded while obs::TraceLog was enabled, summed by
// name.
std::map<std::string, uint64_t> LibrarySpanTotals() {
  std::map<std::string, uint64_t> totals;
  const auto doc =
      gstream::obs::ParseJson(gstream::obs::TraceLog::Get().ToJson());
  if (!doc) return totals;
  const gstream::obs::JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) return totals;
  for (const gstream::obs::JsonValue& ev : events->array) {
    const auto* name = ev.Find("name");
    const auto* dur = ev.Find("dur");
    if (name == nullptr || dur == nullptr || !dur->is_number()) continue;
    totals[name->string] += static_cast<uint64_t>(dur->number * 1e3);
  }
  return totals;
}

// ---------------------------------------------------------------------------
// Estimator geometry, shared by the pipelines and the component replays.
// ---------------------------------------------------------------------------

struct Geometry {
  int levels = 1;
  gstream::OnePassHHOptions hh;
  uint64_t seed = 0;  // Rng seed of every shard replica's stack
};

// The per-level one-pass heavy-hitter geometry GSumEstimator derives from
// its default GSumOptions, with H(M) computed from g (the set-up cost).
Geometry MakeGeometry(const GFunction& g, uint64_t domain, uint64_t seed) {
  const gstream::GSumOptions defaults;
  Geometry geo;
  geo.levels = std::max(
      1, gstream::Log2Ceil(std::max<uint64_t>(domain, 2)) -
             gstream::Log2Floor(std::max<uint64_t>(defaults.candidates, 2)));
  geo.hh.count_sketch =
      gstream::CountSketchOptions{defaults.cs_rows, defaults.cs_buckets};
  geo.hh.ams = defaults.ams;
  geo.hh.candidates = defaults.candidates;
  geo.hh.epsilon = defaults.epsilon;
  geo.hh.probe_points = defaults.probe_points;
  geo.hh.h_envelope = gstream::HEnvelope(
      gstream::EvaluateTable(g, defaults.envelope_domain));
  geo.seed = seed;
  return geo;
}

RecursiveGSum MakeStack(const Geometry& geo) {
  gstream::Rng rng(geo.seed);
  const gstream::OnePassHHOptions hh = geo.hh;
  return RecursiveGSum(
      geo.levels,
      [hh](int /*level*/, gstream::Rng& r) {
        return std::make_unique<gstream::OnePassHeavyHitter>(hh, r);
      },
      rng);
}

StackIngestor::Factory StackFactory(const Geometry& geo) {
  return [geo](size_t /*shard*/) { return MakeStack(geo); };
}

// Counts every evaluation of g made through it.
class CountingG : public GFunction {
 public:
  explicit CountingG(const GFunction& g) : g_(g) {}
  double Value(int64_t x) const override {
    ++evals_;
    return g_.Value(x);
  }
  std::string name() const override { return g_.name(); }
  uint64_t evals() const { return evals_; }

 private:
  const GFunction& g_;
  mutable uint64_t evals_ = 0;
};

size_t CoverEntries(const RecursiveGSum& stack, const GFunction& g) {
  size_t entries = 0;
  for (int l = 0; l <= stack.levels(); ++l) {
    entries += stack.level_sketch(l).Cover(g).size();
  }
  return entries;
}

// ---------------------------------------------------------------------------
// One pipeline pass and its results.
// ---------------------------------------------------------------------------

struct RecoverSample {
  double load_ms = 0.0;     // LoadCheckpoint
  double open_ms = 0.0;     // fresh ShardedIngestor + Open
  double restore_ms = 0.0;  // RestoreIngestor
  double total_ms() const { return load_ms + open_ms + restore_ms; }
};

struct Iteration {
  double setup_s = 0.0;
  double wall_s = 0.0;  // first update handed over .. Estimate() returned
  uint64_t updates = 0;
  double estimate = 0.0;
  double rel_err = 0.0;
  std::vector<double> estimate_ms;
  size_t space_bytes = 0;
  EngineAccount engine;
  RegistrySnapshot registry;  // instruments over the pipeline only
  std::map<std::string, uint64_t> library_spans;  // traced passes only
  int64_t root_span = 0;
  std::vector<RecoverSample> recover;  // replay_ckpt: in-pipeline recovery
  Ledger ledger;
};

// Layer metrics of a traced run, in print order.
struct Layers {
  std::vector<Metric> metrics;
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// Recovery as a restarted process pays it: LoadCheckpoint + a fresh Open
// + RestoreIngestor, until the ingestor is ready to submit.  Returns the
// restored ingestor, or nullptr (with `status` set) when the load or the
// restore failed.
std::unique_ptr<StackIngestor> Recover(const std::string& path,
                                       const Geometry& geo,
                                       const IngestEngineOptions& options,
                                       Tracer& tracer, RecoverSample* sample,
                                       uint64_t* cursor,
                                       gstream::LoadStatus* status) {
  gstream::CheckpointImage image;
  const uint64_t t0 = NowNs();
  {
    Tracer::Scope span(tracer, "persist/LoadCheckpoint");
    *status = gstream::LoadCheckpoint(path, &image);
  }
  const uint64_t t1 = NowNs();
  auto ingest = std::make_unique<StackIngestor>(options, StackFactory(geo));
  {
    Tracer::Scope span(tracer, "engine/ShardedIngestor::Open");
    ingest->Open();
  }
  const uint64_t t2 = NowNs();
  if (status->ok()) {
    Tracer::Scope span(tracer, "persist/RestoreIngestor");
    *status = gstream::RestoreIngestor(image, ingest.get());
  }
  const uint64_t t3 = NowNs();
  sample->load_ms = Millis(t1 - t0);
  sample->open_ms = Millis(t2 - t1);
  sample->restore_ms = Millis(t3 - t2);
  *cursor = image.cursor;
  return status->ok() ? std::move(ingest) : nullptr;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

class Workload {
 public:
  Workload(const RunConfig& config, GFunctionPtr g, double tolerance)
      : config_(config),
        g_(std::move(g)),
        tolerance_(tolerance),
        run_seed_(Prng(config.seed ^ 0x5ce7c4ULL).Next()) {}
  virtual ~Workload() = default;

  // Builds the inputs and the exact reference (untimed).
  virtual void Prepare() = 0;
  // One pipeline pass from a fresh set-up.
  virtual Iteration Run(Tracer& tracer) = 0;
  // Times one more fresh set-up, torn down unused.
  virtual double SetupOnly() = 0;
  // Pipelines that do not checkpoint themselves write one mid-stream GCKP
  // image of their per-shard stacks here, once per run; RecoverOnce then
  // times a recovery from it.  Both are no-ops where every pass recovers
  // from its own checkpoint (replay_ckpt).
  virtual void PrepareRecovery(Tracer& /*tracer*/, Ledger* /*ledger*/) {}
  std::optional<RecoverSample> RecoverOnce(Tracer& tracer,
                                           Ledger* ledger) const {
    if (side_path_.empty()) return std::nullopt;
    RecoverSample sample;
    uint64_t cursor = 0;
    gstream::LoadStatus status;
    const bool ok = Recover(side_path_, side_geo_, side_options_, tracer,
                            &sample, &cursor, &status) != nullptr;
    ledger->Check(ok && cursor == side_cut_,
                  "side checkpoint restore: " + status.message);
    return sample;
  }
  // The workload's accuracy gate: the median rel_err over a run's passes
  // within the tolerance the workload records.  (Single passes are not
  // gated: each draws fresh estimator randomness, and the paper's
  // guarantee is a probability, so rare passes land far out.)
  void CheckAccuracy(const std::vector<double>& rel_err,
                     Ledger* ledger) const {
    const double median = Median(rel_err);
    ledger->Check(median <= tolerance_,
                  Fmt("median rel_err %.4f above tolerance %.4f", median,
                      tolerance_));
  }
  // Traced run: component replays of the workload's own chunks through
  // standalone objects with the estimator's geometry.
  virtual void Components(Layers* layers, Ledger* ledger) = 0;

  const Input& input() const { return input_; }
  const std::string& workdir() const { return config_.workdir; }

 protected:
  // The checks every pass must pass: a finite estimate and a lossless,
  // healthy engine.
  void CheckPass(Iteration* it) const {
    const uint64_t n = input_.stream.length();
    it->rel_err = std::abs(it->estimate - exact_) / exact_;
    Ledger& l = it->ledger;
    l.Check(std::isfinite(it->estimate) && it->estimate >= 0.0,
            Fmt("estimate %.6g is not a finite g-sum", it->estimate));
    const EngineAccount& e = it->engine;
    l.Ops(n, e.shed, "updates shed");
    l.Ops(0, e.timeouts, "submit deadline timeouts");
    l.Check(e.submitted == n && e.applied == n,
            Fmt("engine accounting: submitted %.0f applied %.0f of %.0f",
                static_cast<double>(e.submitted),
                static_cast<double>(e.applied), static_cast<double>(n)));
    l.Check(!e.error, "engine error: " + e.error_detail);
  }

  void EstimateRepeats(const std::function<double()>& estimate,
                       Tracer& tracer, Iteration* it) const {
    for (int r = 0; r < kEstimateRepeats; ++r) {
      Tracer::Scope span(tracer, "core/Estimate");
      const uint64_t t0 = NowNs();
      const double again = estimate();
      it->estimate_ms.push_back(Millis(NowNs() - t0));
      it->ledger.Check(again == it->estimate, "repeated estimate differs");
    }
  }

  // Traced runs also time LoadStream on the workload's input saved in
  // gstream-v1 text, for workloads whose pipeline reads no file.
  void StreamSideLoad(Layers* layers, Ledger* ledger) const {
    const std::string path = config_.workdir + "/stream.gstream";
    ledger->Check(WriteStreamText(input_.stream, path), "write stream file");
    const uint64_t t0 = NowNs();
    gstream::LoadStatus status;
    const std::optional<Stream> loaded = gstream::LoadStream(path, &status);
    const uint64_t t1 = NowNs();
    ledger->Check(loaded.has_value() &&
                      loaded->updates().size() == input_.stream.length(),
                  "LoadStream: " + status.message);
    layers->Set("stream.load_s", Seconds(t1 - t0), "s");
    layers->Set("stream.file_mb",
                static_cast<double>(std::filesystem::file_size(path)) /
                    (1 << 20),
                "MiB");
    std::filesystem::remove(path);
  }

  // gfunc layer: H(M) envelope cost and g evaluations per estimate.
  void GfuncLayers(uint64_t evals, Layers* layers) const {
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
      const uint64_t t0 = NowNs();
      const double h = gstream::HEnvelope(gstream::EvaluateTable(
          *g_, gstream::GSumOptions{}.envelope_domain));
      ms.push_back(Millis(NowNs() - t0));
      GSTREAM_CHECK(h >= 1.0);
    }
    layers->Set("gfunc.envelope_ms", Median(ms), "ms");
    layers->Set("gfunc.evals_per_estimate", static_cast<double>(evals),
                "count");
  }

  // sketch layer: the subsampler, and CountSketch / top-k tracker / AMS
  // per level, each fed the level sub-batches of every chunk.
  void SketchLayers(const Geometry& geo, Layers* layers) const {
    gstream::Rng rng(geo.seed);
    const gstream::NestedSubsampler subsampler(geo.levels, rng);
    const size_t levels = static_cast<size_t>(geo.levels) + 1;
    std::vector<gstream::CountSketch> cs;
    std::vector<gstream::CountSketchTopK> topk;
    std::vector<gstream::AmsSketch> ams;
    for (size_t l = 0; l < levels; ++l) {
      cs.emplace_back(geo.hh.count_sketch, rng);
      topk.emplace_back(geo.hh.count_sketch, geo.hh.candidates, rng);
      ams.emplace_back(geo.hh.ams, rng);
    }
    std::vector<std::vector<Update>> batches(levels);
    for (auto& b : batches) b.reserve(kChunk);
    std::vector<int> level(kChunk);
    uint64_t sub_ns = 0, cs_ns = 0, topk_ns = 0, ams_ns = 0, fanout = 0;
    const Update* data = input_.stream.updates().data();
    const size_t n = input_.stream.length();
    for (size_t i = 0; i < n; i += kChunk) {
      const size_t len = std::min(kChunk, n - i);
      uint64_t t = NowNs();
      subsampler.LevelOfBatch(data + i, len, level.data());
      sub_ns += NowNs() - t;
      for (auto& b : batches) b.clear();
      for (size_t j = 0; j < len; ++j) {
        const size_t deepest =
            std::min(static_cast<size_t>(level[j]), levels - 1);
        fanout += deepest + 1;
        for (size_t l = 0; l <= deepest; ++l) batches[l].push_back(data[i + j]);
      }
      auto feed = [&](auto& sketches, uint64_t* ns) {
        const uint64_t t0 = NowNs();
        for (size_t l = 0; l < levels; ++l) {
          if (!batches[l].empty()) {
            sketches[l].UpdateBatch(batches[l].data(), batches[l].size());
          }
        }
        *ns += NowNs() - t0;
      };
      feed(cs, &cs_ns);
      feed(topk, &topk_ns);
      feed(ams, &ams_ns);
    }
    const double level_updates = static_cast<double>(fanout);
    layers->Set("sketch.subsample_ns",
                static_cast<double>(sub_ns) / static_cast<double>(n),
                "ns/update");
    layers->Set("sketch.level_fanout", level_updates / static_cast<double>(n),
                "levels/update");
    layers->Set("sketch.cs_update_ns",
                static_cast<double>(cs_ns) / level_updates, "ns/level-update");
    layers->Set("sketch.topk_update_ns",
                static_cast<double>(topk_ns) / level_updates,
                "ns/level-update");
    layers->Set("sketch.ams_update_ns",
                static_cast<double>(ams_ns) / level_updates,
                "ns/level-update");
  }

  // core layer, for pipelines whose shard unit is one RecursiveGSum: the
  // same stack fed sequentially, chunk by chunk, on one thread.
  void SequentialStackLayers(const Geometry& geo, Layers* layers,
                             uint64_t* evals) const {
    RecursiveGSum stack = MakeStack(geo);
    std::vector<double> chunk_us;
    uint64_t busy_ns = 0;
    const Update* data = input_.stream.updates().data();
    const size_t n = input_.stream.length();
    for (size_t i = 0; i < n; i += kChunk) {
      const uint64_t t0 = NowNs();
      stack.UpdateBatch(data + i, std::min(kChunk, n - i));
      const uint64_t dt = NowNs() - t0;
      busy_ns += dt;
      chunk_us.push_back(static_cast<double>(dt) * 1e-3);
    }
    const uint64_t t0 = NowNs();
    const double estimate = stack.Estimate(*g_);
    busy_ns += NowNs() - t0;
    GSTREAM_CHECK(estimate >= 0.0);
    SetChunkLayers(chunk_us, n, busy_ns, layers);
    layers->Set("core.cover_entries",
                static_cast<double>(CoverEntries(stack, *g_)), "count");
    CountingG counting(*g_);
    stack.Estimate(counting);
    *evals = counting.evals();
  }

  static void SetChunkLayers(const std::vector<double>& chunk_us, size_t n,
                             uint64_t busy_ns, Layers* layers) {
    layers->Set("core.seq_mups",
                static_cast<double>(n) / Seconds(busy_ns) * 1e-6,
                "Mupdates/s");
    layers->Set("core.chunk_us_p50", Quantile(chunk_us, 0.5), "us");
    layers->Set("core.chunk_us_p99", Quantile(chunk_us, 0.99), "us");
    layers->Set("core.chunk_samples", static_cast<double>(chunk_us.size()),
                "count");
  }

  const RunConfig config_;
  const GFunctionPtr g_;
  const double tolerance_;
  // The estimator's seed for pass k of the run (k = 0: the component
  // replays and side checkpoints).  Each pass draws fresh estimator
  // randomness -- which levels the heavy items land in drives both the
  // decode cost and the error -- so a run's medians average over those
  // draws instead of resting on one.
  uint64_t SeedFor(uint64_t k) const { return Prng(run_seed_ + k).Next(); }
  uint64_t NextPassSeed() { return SeedFor(++passes_); }

  // Writes the side checkpoint: stream[0, cut) through a single-producer
  // ingestor of the workload's shard layout, one checkpoint at the cut.
  void PrepareSideCheckpoint(const Geometry& geo, IngestEngineOptions options,
                             Tracer& tracer, Ledger* ledger) {
    options.max_producers = 1;
    side_geo_ = geo;
    side_options_ = options;
    side_cut_ = input_.stream.length() / 2 / kChunk * kChunk;
    side_path_ = config_.workdir + "/side.gckp";
    StackIngestor writer(options, StackFactory(geo));
    writer.Open();
    gstream::CheckpointOptions ckpt;
    ckpt.path = side_path_;
    ckpt.interval_updates = side_cut_;
    Tracer::Scope span(tracer, "persist/RunWithCheckpoints");
    const uint64_t cursor = gstream::RunWithCheckpoints(
        writer, input_.stream, 0, ckpt, [](uint64_t) { return false; });
    ledger->Check(cursor == side_cut_, "side checkpoint at wrong cursor");
  }

  const uint64_t run_seed_;
  uint64_t passes_ = 0;
  std::string side_path_;  // empty: no side checkpoint
  Geometry side_geo_;
  IngestEngineOptions side_options_;
  uint64_t side_cut_ = 0;
  Input input_;
  double exact_ = 0.0;
};

// zipf_onepass ---------------------------------------------------------------

class ZipfOnePass : public Workload {
 public:
  static constexpr size_t kShards = 3;
  static constexpr size_t kRepetitions = 5;

  explicit ZipfOnePass(const RunConfig& config)
      : Workload(config, gstream::MakeX2Log(), /*tolerance=*/0.05) {}

  void Prepare() override {
    ZipfShape shape;
    shape.updates = static_cast<size_t>(shape.updates * config_.scale);
    input_ = MakeZipfInput(shape, config_.seed);
    exact_ = gstream::ExactGSum(input_.frequencies, g_->AsCallable());
  }

  gstream::GSumOptions Options(bool parallel, uint64_t seed) const {
    gstream::GSumOptions o;
    o.passes = 1;
    o.repetitions = kRepetitions;
    o.seed = seed;
    o.parallel_ingest = parallel;
    o.ingest_shards = kShards;
    o.ingest_policy = PartitionPolicy::kRoundRobinChunks;
    return o;
  }

  Iteration Run(Tracer& tracer) override {
    Iteration it;
    const Stream& stream = input_.stream;
    it.updates = stream.length();
    ResetRegistry();
    const uint64_t t0 = NowNs();
    const uint64_t seed = NextPassSeed();
    std::unique_ptr<gstream::GSumEstimator> est;
    {
      Tracer::Scope span(tracer, "core/GSumEstimator::GSumEstimator");
      est = std::make_unique<gstream::GSumEstimator>(g_, stream.domain(),
                                                     Options(true, seed));
    }
    const uint64_t t1 = NowNs();
    if (tracer.enabled()) gstream::obs::TraceLog::Get().Enable();
    uint64_t t2 = 0;
    {
      Tracer::Scope root(tracer, "pipeline");
      it.root_span = root.id();
      {
        Tracer::Scope span(tracer, "core/GSumEstimator::Process");
        it.estimate = est->Process(stream);
      }
      t2 = NowNs();
    }
    if (tracer.enabled()) {
      gstream::obs::TraceLog::Get().Disable();
      it.library_spans = LibrarySpanTotals();
      gstream::obs::TraceLog::Get().Clear();
    }
    it.setup_s = Seconds(t1 - t0);
    it.wall_s = Seconds(t2 - t1);
    it.registry = ReadRegistry();
    it.engine = AccountFromRegistry(it.registry, kShards, 1);
    EstimateRepeats([&] { return est->Estimate(); }, tracer, &it);
    it.space_bytes = est->SpaceBytes();
    CheckPass(&it);
    return it;
  }

  double SetupOnly() override {
    const uint64_t t0 = NowNs();
    gstream::GSumEstimator est(g_, input_.stream.domain(),
                               Options(true, SeedFor(passes_)));
    return Seconds(NowNs() - t0);
  }

  // One repetition's stack: the same randomness GSumEstimator gives its
  // first repetition (Rng(seed).Fork()).
  Geometry RepetitionGeometry() const {
    gstream::Rng root(SeedFor(0));
    return MakeGeometry(*g_, input_.stream.domain(), root.NextUint64());
  }

  void PrepareRecovery(Tracer& tracer, Ledger* ledger) override {
    IngestEngineOptions options;
    options.shards = kShards;
    options.policy = PartitionPolicy::kRoundRobinChunks;
    PrepareSideCheckpoint(RepetitionGeometry(), options, tracer, ledger);
  }

  void Components(Layers* layers, Ledger* ledger) override {
    const Geometry geo = RepetitionGeometry();
    SketchLayers(geo, layers);
    // core: the whole estimator (every repetition) fed sequentially; the
    // first repetition's stack rides along untimed for its cover sizes.
    gstream::GSumEstimator est(g_, input_.stream.domain(),
                               Options(false, SeedFor(0)));
    RecursiveGSum rep0 = MakeStack(geo);
    std::vector<double> chunk_us;
    uint64_t busy_ns = 0;
    const Update* data = input_.stream.updates().data();
    const size_t n = input_.stream.length();
    for (size_t i = 0; i < n; i += kChunk) {
      const size_t len = std::min(kChunk, n - i);
      const uint64_t t0 = NowNs();
      est.UpdateBatch(data + i, len);
      const uint64_t dt = NowNs() - t0;
      busy_ns += dt;
      chunk_us.push_back(static_cast<double>(dt) * 1e-3);
      rep0.UpdateBatch(data + i, len);
    }
    const uint64_t t0 = NowNs();
    const double estimate = est.Estimate();
    busy_ns += NowNs() - t0;
    ledger->Check(std::isfinite(estimate) && estimate >= 0.0,
                  "sequential estimate is not a finite g-sum");
    SetChunkLayers(chunk_us, n, busy_ns, layers);
    layers->Set("core.cover_entries",
                static_cast<double>(CoverEntries(rep0, *g_)), "count");
    CountingG counting(*g_);
    est.EstimateForG(counting);
    GfuncLayers(counting.evals(), layers);
    StreamSideLoad(layers, ledger);
  }
};

// Shared by the two click-log workloads: one RecursiveGSum per shard.
class ClickWorkload : public Workload {
 public:
  ClickWorkload(const RunConfig& config, ClickShape shape, size_t shards,
                PartitionPolicy policy)
      : Workload(config, gstream::MakeSpamClickFee(16), /*tolerance=*/0.2),
        shape_(shape),
        shards_(shards),
        policy_(policy) {}

  void Prepare() override {
    auto scaled = [&](size_t v) {
      return std::max<size_t>(1, static_cast<size_t>(v * config_.scale));
    };
    shape_.users = scaled(shape_.users);
    shape_.enthusiasts = scaled(shape_.enthusiasts);
    shape_.bots = scaled(shape_.bots);
    shape_.churn_pairs = scaled(shape_.churn_pairs);
    input_ = MakeClickInput(shape_, config_.seed);
    exact_ = gstream::ExactGSum(input_.frequencies, g_->AsCallable());
  }

  double SetupOnly() override {
    const uint64_t t0 = NowNs();
    StackIngestor ingest(EngineOptions(), StackFactory(Setup(passes_)));
    ingest.Open();
    return Seconds(NowNs() - t0);
  }

  void Components(Layers* layers, Ledger* ledger) override {
    const Geometry geo = Setup(0);
    SketchLayers(geo, layers);
    uint64_t evals = 0;
    SequentialStackLayers(geo, layers, &evals);
    GfuncLayers(evals, layers);
    StreamSideLoad(layers, ledger);
  }

 protected:
  virtual IngestEngineOptions EngineOptions() const = 0;

  // The pass-k stack geometry; computing H(M) is part of the set-up cost.
  Geometry Setup(uint64_t k) const {
    return MakeGeometry(*g_, input_.stream.domain(), SeedFor(k));
  }

  // Drain, merge, estimate: the tail every click pipeline shares.
  void Finish(StackIngestor& ingest, Tracer& tracer, Iteration* it) const {
    {
      Tracer::Scope span(tracer, "engine/ShardedIngestor::Drain");
      ingest.Drain();
    }
    RecursiveGSum* merged = nullptr;
    {
      Tracer::Scope span(tracer, "core/ShardedIngestor::Close");
      merged = &ingest.Close();
    }
    {
      Tracer::Scope span(tracer, "core/RecursiveGSum::Estimate");
      it->estimate = merged->Estimate(*g_);
    }
  }

  ClickShape shape_;
  const size_t shards_;
  const PartitionPolicy policy_;
};

// clicks_mpsc ----------------------------------------------------------------

class ClicksMpsc : public ClickWorkload {
 public:
  static constexpr size_t kProducers = 2;

  explicit ClicksMpsc(const RunConfig& config)
      : ClickWorkload(config, ClickShape{}, 2, PartitionPolicy::kHashItem) {}

  IngestEngineOptions EngineOptions() const override {
    IngestEngineOptions options;
    options.shards = shards_;
    options.policy = policy_;
    options.max_producers = kProducers;
    return options;
  }

  Iteration Run(Tracer& tracer) override {
    Iteration it;
    const uint64_t pass = ++passes_;
    const Stream& stream = input_.stream;
    const size_t n = stream.length();
    it.updates = n;
    ResetRegistry();
    const uint64_t t0 = NowNs();
    std::unique_ptr<StackIngestor> ingest;
    {
      Tracer::Scope span(tracer, "engine/ShardedIngestor::Open");
      ingest = std::make_unique<StackIngestor>(EngineOptions(),
                                               StackFactory(Setup(pass)));
      ingest->Open();
    }
    const uint64_t t1 = NowNs();
    if (tracer.enabled()) gstream::obs::TraceLog::Get().Enable();
    std::vector<uint64_t> accepted(kProducers, 0);
    uint64_t t2 = 0;
    {
      Tracer::Scope root(tracer, "pipeline");
      it.root_span = root.id();
      {
        Tracer::Scope producers(tracer, "engine/producers");
        const int64_t parent = producers.id();
        std::vector<std::thread> threads;
        for (size_t p = 0; p < kProducers; ++p) {
          threads.emplace_back([&, p, parent] {
            // Each regional collector submits its slice of the log.
            const size_t begin = n * p / kProducers;
            const size_t end = n * (p + 1) / kProducers;
            gstream::ProducerHandle* handle = nullptr;
            {
              Tracer::Scope span(tracer, "engine/ShardedIngestor::AddProducer",
                                 parent);
              handle = ingest->AddProducer();
            }
            for (size_t i = begin; i < end; i += kSubmitSlice) {
              Tracer::Scope span(tracer, "engine/ProducerHandle::Submit",
                                 parent);
              const gstream::SubmitResult r = handle->Submit(
                  stream.updates().data() + i, std::min(kSubmitSlice, end - i));
              accepted[p] += r.accepted;
            }
            Tracer::Scope span(tracer, "engine/ProducerHandle::Close", parent);
            handle->Close();
          });
        }
        for (std::thread& t : threads) t.join();
      }
      Finish(*ingest, tracer, &it);
      t2 = NowNs();
    }
    if (tracer.enabled()) {
      gstream::obs::TraceLog::Get().Disable();
      it.library_spans = LibrarySpanTotals();
      gstream::obs::TraceLog::Get().Clear();
    }
    it.setup_s = Seconds(t1 - t0);
    it.wall_s = Seconds(t2 - t1);
    it.registry = ReadRegistry();
    it.engine = AccountFromStats(ingest->stats(), ingest->error());
    uint64_t accepted_total = 0;
    for (uint64_t a : accepted) accepted_total += a;
    it.ledger.Check(accepted_total == n, "producers' accepted != log length");
    RecursiveGSum& merged = ingest->Close();
    it.space_bytes = merged.SpaceBytes();
    EstimateRepeats([&] { return merged.Estimate(*g_); }, tracer, &it);
    CheckPass(&it);
    return it;
  }

  void PrepareRecovery(Tracer& tracer, Ledger* ledger) override {
    PrepareSideCheckpoint(Setup(0), EngineOptions(), tracer, ledger);
  }

};

// replay_ckpt ----------------------------------------------------------------

class ReplayCkpt : public ClickWorkload {
 public:
  explicit ReplayCkpt(const RunConfig& config)
      : ClickWorkload(config,
                      ClickShape{uint64_t{1} << 20, 130'000, 1'300, 30,
                                 30'000},
                      3, PartitionPolicy::kRoundRobinChunks) {}

  void Prepare() override {
    ClickWorkload::Prepare();
    interval_ = std::max<uint64_t>(
        kChunk, static_cast<uint64_t>(kCheckpointInterval * config_.scale) /
                    kChunk * kChunk);
    const uint64_t checkpoints =
        (input_.stream.length() + interval_ - 1) / interval_;
    GSTREAM_CHECK_GE(checkpoints, 2u);
    mid_ = checkpoints / 2 * interval_;
    log_path_ = workdir() + "/clicks.gstream";
    GSTREAM_CHECK(WriteStreamText(input_.stream, log_path_));
  }

  IngestEngineOptions EngineOptions() const override {
    IngestEngineOptions options;
    options.shards = shards_;
    options.policy = policy_;
    return options;
  }

  Iteration Run(Tracer& tracer) override {
    Iteration it;
    const uint64_t pass = ++passes_;
    const size_t n = input_.stream.length();
    it.updates = n;
    ResetRegistry();
    const uint64_t t0 = NowNs();
    Geometry geo;
    std::unique_ptr<StackIngestor> ingest;
    {
      Tracer::Scope span(tracer, "engine/ShardedIngestor::Open");
      geo = Setup(pass);
      ingest = std::make_unique<StackIngestor>(EngineOptions(),
                                               StackFactory(geo));
      ingest->Open();
    }
    const uint64_t t1 = NowNs();
    if (tracer.enabled()) gstream::obs::TraceLog::Get().Enable();
    std::optional<Stream> loaded;
    gstream::LoadStatus load_status;
    uint64_t t2 = 0;
    std::string uninterrupted;
    {
      Tracer::Scope root(tracer, "pipeline");
      it.root_span = root.id();
      {
        Tracer::Scope span(tracer, "stream/LoadStream");
        loaded = gstream::LoadStream(log_path_, &load_status);
      }
      if (loaded.has_value()) {
        gstream::CheckpointOptions first;
        first.path = workdir() + "/mid.gckp";
        first.interval_updates = interval_;
        gstream::CheckpointOptions rest = first;
        rest.path = workdir() + "/tail.gckp";
        uint64_t cursor = 0;
        {
          Tracer::Scope span(tracer, "persist/RunWithCheckpoints");
          cursor = gstream::RunWithCheckpoints(
              *ingest, *loaded, 0, first,
              [this](uint64_t c) { return c < mid_; });
        }
        it.ledger.Check(cursor == mid_, "first half stopped early");
        {
          Tracer::Scope span(tracer, "persist/RunWithCheckpoints");
          cursor = gstream::RunWithCheckpoints(*ingest, *loaded, cursor, rest);
        }
        it.ledger.Check(cursor == n, "second half stopped early");
        Finish(*ingest, tracer, &it);
        t2 = NowNs();
      } else {
        t2 = NowNs();
      }
    }
    if (tracer.enabled()) {
      gstream::obs::TraceLog::Get().Disable();
      it.library_spans = LibrarySpanTotals();
      gstream::obs::TraceLog::Get().Clear();
    }
    it.setup_s = Seconds(t1 - t0);
    it.wall_s = Seconds(t2 - t1);
    it.registry = ReadRegistry();
    it.engine = AccountFromStats(ingest->stats(), ingest->error());
    it.ledger.Check(loaded.has_value() &&
                        loaded->updates().size() == n &&
                        std::memcmp(loaded->updates().data(),
                                    input_.stream.updates().data(),
                                    n * sizeof(Update)) == 0,
                    "LoadStream: " + load_status.message);
    const uint64_t saves = CounterOf(it.registry, "persist/ckpt_saves");
    it.ledger.Ops(saves + CounterOf(it.registry, "persist/ckpt_save_failures"),
                  CounterOf(it.registry, "persist/ckpt_save_failures"),
                  "checkpoint save failed");
    if (!loaded.has_value()) return it;
    RecursiveGSum& merged = ingest->Close();
    it.space_bytes = merged.SpaceBytes();
    EstimateRepeats([&] { return merged.Estimate(*g_); }, tracer, &it);
    CheckPass(&it);
    uninterrupted = gstream::SerializeSketch(merged);
    Resume(*loaded, geo, uninterrupted, tracer, &it);
    return it;
  }


 private:
  // Recovery from the mid-stream checkpoint: LoadCheckpoint + a fresh Open
  // + RestoreIngestor (timed: recover_ms), then resume to the end.  The
  // resumed stack must serialize byte-identical to the uninterrupted one.
  void Resume(const Stream& stream, const Geometry& geo,
              const std::string& uninterrupted, Tracer& tracer,
              Iteration* it) {
    RecoverSample sample;
    uint64_t cursor = 0;
    gstream::LoadStatus status;
    std::unique_ptr<StackIngestor> ingest =
        Recover(workdir() + "/mid.gckp", geo, EngineOptions(), tracer,
                &sample, &cursor, &status);
    it->ledger.Check(ingest != nullptr && cursor == mid_,
                     "restore from mid-stream checkpoint: " + status.message);
    if (ingest == nullptr) return;
    it->recover.push_back(sample);
    gstream::CheckpointOptions resume;
    resume.path = workdir() + "/resume.gckp";
    resume.interval_updates = interval_;
    {
      Tracer::Scope span(tracer, "persist/RunWithCheckpoints");
      cursor = gstream::RunWithCheckpoints(*ingest, stream, cursor, resume);
    }
    it->ledger.Check(cursor == stream.length(), "resumed feed stopped early");
    const std::string resumed = gstream::SerializeSketch(ingest->Close());
    it->ledger.Check(resumed == uninterrupted,
                     "resumed sketch differs from the uninterrupted run");
  }

  uint64_t interval_ = kCheckpointInterval;
  uint64_t mid_ = 0;
  std::string log_path_;
};

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "zipf_onepass") {
    return std::make_unique<ZipfOnePass>(config);
  }
  if (config.workload == "clicks_mpsc") {
    return std::make_unique<ClicksMpsc>(config);
  }
  if (config.workload == "replay_ckpt") {
    return std::make_unique<ReplayCkpt>(config);
  }
  return nullptr;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Measured and traced runs.
// ---------------------------------------------------------------------------

bool Elapsed(uint64_t since, double seconds) {
  return Seconds(NowNs() - since) >= seconds;
}

void MeasuredRun(Workload& w, const RunConfig& config, RunReport* report,
                 Ledger* ledger) {
  Tracer off(false);
  w.PrepareRecovery(off, ledger);
  // Warm-up pass: checked like every pass, not timed.
  const Iteration warm = w.Run(off);
  ledger->Merge(warm.ledger);
  std::vector<double> setup, mups, estimate_ms, rel_err{warm.rel_err},
      space_kb, recover;
  std::vector<Iteration> its;
  const uint64_t begin = NowNs();
  while (its.size() < kMinIterations || !Elapsed(begin, config.seconds)) {
    its.push_back(w.Run(off));
    ledger->Merge(its.back().ledger);
    // Extra set-ups and side recoveries between passes, so they sample
    // the same stretch of time as the passes do.
    for (size_t k = 0; k < kSetupsPerPass; ++k) setup.push_back(w.SetupOnly());
    for (size_t k = 0; k < kRecoveriesPerPass; ++k) {
      if (const auto r = w.RecoverOnce(off, ledger)) {
        recover.push_back(r->total_ms());
      }
    }
  }
  for (const Iteration& it : its) {
    setup.push_back(it.setup_s);
    mups.push_back(static_cast<double>(it.updates) / it.wall_s * 1e-6);
    estimate_ms.insert(estimate_ms.end(), it.estimate_ms.begin(),
                       it.estimate_ms.end());
    rel_err.push_back(it.rel_err);
    space_kb.push_back(static_cast<double>(it.space_bytes) / 1024.0);
    for (const RecoverSample& r : it.recover) recover.push_back(r.total_ms());
  }
  while (setup.size() < kSetupSamples) setup.push_back(w.SetupOnly());
  w.CheckAccuracy(rel_err, ledger);
  report->metrics = {
      {"setup_s", Median(setup), "s"},
      {"mups", Median(mups), "Mupdates/s"},
      {"space_kb", Median(space_kb), "KiB"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"recover_ms", Median(recover), "ms"},
  };
  report->notes = {
      Fmt("updates per pass %.0f, passes %.0f (+1 warm-up)",
          static_cast<double>(w.input().stream.length()),
          static_cast<double>(its.size())),
      Fmt("rel_err over passes: median %.5f (gated), min %.5f, max %.5f",
          Median(rel_err), *std::min_element(rel_err.begin(), rel_err.end()),
          *std::max_element(rel_err.begin(), rel_err.end())),
      Fmt("mups: median %.4f, min %.4f, max %.4f", Median(mups),
          *std::min_element(mups.begin(), mups.end()),
          *std::max_element(mups.begin(), mups.end())),
      Fmt("estimate_ms: median %.4f, p%.1f %.4f",
          Median(estimate_ms), 100.0 * TailQuantile(estimate_ms.size()),
          Quantile(estimate_ms, TailQuantile(estimate_ms.size()))),
      Fmt("samples: estimate %.0f, setup %.0f, recover %.0f",
          static_cast<double>(estimate_ms.size()),
          static_cast<double>(setup.size()),
          static_cast<double>(recover.size())),
  };
}

void TracedRun(Workload& w, const RunConfig& config, RunReport* report,
               Ledger* ledger) {
  Layers layers;
  w.Components(&layers, ledger);
  Tracer on(true), off(false);
  const Iteration warm = w.Run(off);
  ledger->Merge(warm.ledger);
  std::vector<Iteration> traced, untraced;
  const uint64_t begin = NowNs();
  for (size_t pair = 0;
       pair < kMinTracedPairs || !Elapsed(begin, config.seconds); ++pair) {
    // Alternate which side goes first so drift hits both equally.
    if (pair % 2 == 0) untraced.push_back(w.Run(off));
    traced.push_back(w.Run(on));
    if (pair % 2 == 1) untraced.push_back(w.Run(off));
    ledger->Merge(traced.back().ledger);
    ledger->Merge(untraced.back().ledger);
  }
  auto wall = [](const std::vector<Iteration>& its) {
    std::vector<double> v;
    for (const Iteration& it : its) v.push_back(it.wall_s);
    return Median(v);
  };
  layers.Set("trace.overhead_share", wall(traced) / wall(untraced) - 1.0,
             "ratio");
  std::vector<double> rel_err{warm.rel_err};
  for (const auto* its : {&traced, &untraced}) {
    for (const Iteration& it : *its) rel_err.push_back(it.rel_err);
  }
  w.CheckAccuracy(rel_err, ledger);
  layers.Set("core.rel_err", Median(rel_err), "ratio");
  std::vector<double> unattributed;
  for (const Iteration& it : traced) {
    const double share = on.UnattributedShare(it.root_span);
    unattributed.push_back(share);
    ledger->Check(share <= kReconcileTolerance,
                  Fmt("top-level spans leave %.4f of the pipeline wall "
                      "unattributed (tolerance %.2f)",
                      share, kReconcileTolerance));
  }
  layers.Set("trace.unattributed_share", Median(unattributed), "ratio");

  // engine + core merge, per traced pass (medians); sink latency over
  // every pass's sampled chunks.
  std::vector<double> submit_ns, stall_share, stalls, highwater, skew,
      drain_ms, merge_ms, shed;
  HistogramSnapshot sink;
  auto merge_sink = [&](const Iteration& it) {
    sink.MergeFrom(HistogramOf(it.registry, "engine/sink_batch_ns"));
  };
  for (const Iteration& it : traced) {
    const auto span = [&](const char* name) -> double {
      const auto f = it.library_spans.find(name);
      return f == it.library_spans.end() ? 0.0 : static_cast<double>(f->second);
    };
    const double submit = span("engine/submit");
    submit_ns.push_back(submit / static_cast<double>(it.updates));
    stall_share.push_back(
        submit > 0 ? static_cast<double>(it.engine.stall_ns) / submit : 0.0);
    stalls.push_back(static_cast<double>(it.engine.stalls));
    highwater.push_back(static_cast<double>(it.engine.ring_highwater));
    skew.push_back(it.engine.ShardSkew());
    drain_ms.push_back(span("engine/close") * 1e-6);
    merge_ms.push_back(
        Millis(HistogramOf(it.registry, "engine/merge_ns").sum));
    shed.push_back(static_cast<double>(it.engine.shed));
    merge_sink(it);
  }
  for (const Iteration& it : untraced) merge_sink(it);
  layers.Set("core.merge_ms", Median(merge_ms), "ms");
  std::vector<double> estimate_ms;
  for (const auto* its : {&traced, &untraced}) {
    for (const Iteration& it : *its) {
      estimate_ms.insert(estimate_ms.end(), it.estimate_ms.begin(),
                         it.estimate_ms.end());
    }
  }
  layers.Set("core.estimate_ms", Median(estimate_ms), "ms");
  layers.Set("engine.submit_ns", Median(submit_ns), "ns/update");
  layers.Set("engine.stall_share", Median(stall_share), "ratio");
  layers.Set("engine.stalls", Median(stalls), "count");
  layers.Set("engine.ring_highwater",
             *std::max_element(highwater.begin(), highwater.end()), "chunks");
  layers.Set("engine.shard_skew", Median(skew), "ratio");
  layers.Set("engine.drain_ms", Median(drain_ms), "ms");
  layers.Set("engine.sink_us_p50",
             static_cast<double>(sink.ValueAtPercentile(0.5)) * 1e-3, "us");
  layers.Set("engine.sink_us_p99",
             static_cast<double>(sink.ValueAtPercentile(0.99)) * 1e-3, "us");
  layers.Set("engine.sink_samples", static_cast<double>(sink.count), "count");
  layers.Set("engine.shed", *std::max_element(shed.begin(), shed.end()),
             "count");

  // persist: the pipeline's own checkpoints (replay_ckpt), otherwise the
  // workload's side checkpoint + recoveries.
  std::vector<RegistrySnapshot> ckpt_registries;
  std::vector<RecoverSample> recover;
  std::vector<double> ckpt_share;
  for (const Iteration& it : traced) {
    recover.insert(recover.end(), it.recover.begin(), it.recover.end());
  }
  const bool in_pipeline = !recover.empty();
  if (in_pipeline) {
    for (const Iteration& it : traced) {
      ckpt_registries.push_back(it.registry);
      const double ns =
          static_cast<double>(
              HistogramOf(it.registry, "persist/ckpt_quiesce_ns").sum +
              HistogramOf(it.registry, "persist/ckpt_serialize_ns").sum +
              HistogramOf(it.registry, "persist/ckpt_write_ns").sum);
      ckpt_share.push_back(ns * 1e-9 / it.wall_s);
    }
  } else {
    ResetRegistry();
    w.PrepareRecovery(on, ledger);
    ckpt_registries.push_back(ReadRegistry());
    for (size_t k = 0; k < kTracedRecoveries; ++k) {
      if (const auto r = w.RecoverOnce(on, ledger)) recover.push_back(*r);
    }
    ckpt_share.push_back(0.0);  // the pipeline itself never checkpoints
  }
  uint64_t saves = 0, bytes = 0;
  HistogramSnapshot quiesce, serialize, write;
  for (const RegistrySnapshot& r : ckpt_registries) {
    saves += CounterOf(r, "persist/ckpt_saves");
    bytes += CounterOf(r, "persist/ckpt_bytes_written");
    quiesce.MergeFrom(HistogramOf(r, "persist/ckpt_quiesce_ns"));
    serialize.MergeFrom(HistogramOf(r, "persist/ckpt_serialize_ns"));
    write.MergeFrom(HistogramOf(r, "persist/ckpt_write_ns"));
  }
  std::vector<double> load_ms, restore_ms;
  for (const RecoverSample& r : recover) {
    load_ms.push_back(r.load_ms);
    restore_ms.push_back(r.restore_ms);
  }
  const double per_pass = static_cast<double>(ckpt_registries.size());
  layers.Set("persist.ckpts", static_cast<double>(saves) / per_pass, "count");
  layers.Set("persist.ckpt_kb",
             saves == 0 ? 0.0
                        : static_cast<double>(bytes) / saves / 1024.0,
             "KiB");
  layers.Set("persist.quiesce_ms_p50",
             static_cast<double>(quiesce.ValueAtPercentile(0.5)) * 1e-6, "ms");
  layers.Set("persist.serialize_ms_p50",
             static_cast<double>(serialize.ValueAtPercentile(0.5)) * 1e-6,
             "ms");
  layers.Set("persist.write_ms_p50",
             static_cast<double>(write.ValueAtPercentile(0.5)) * 1e-6, "ms");
  layers.Set("persist.ckpt_samples", static_cast<double>(write.count),
             "count");
  layers.Set("persist.ckpt_share", Median(ckpt_share), "ratio");
  layers.Set("persist.load_ms", Median(load_ms), "ms");
  layers.Set("persist.restore_ms", Median(restore_ms), "ms");

  const std::string trace_path =
      config.workdir + "/../traces/" + config.workload + "-seed" +
      std::to_string(config.seed) + ".json";
  std::filesystem::create_directories(config.workdir + "/../traces");
  ledger->Check(on.WriteChromeTrace(trace_path), "write trace file");
  report->notes.push_back("trace: " + trace_path);
  report->notes.push_back(Fmt(
      "traced passes %.0f, untraced passes %.0f",
      static_cast<double>(traced.size()), static_cast<double>(untraced.size())));
  report->metrics = std::move(layers.metrics);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"zipf_onepass", "clicks_mpsc",
                                                 "replay_ckpt"};
  return names;
}

RunReport RunWorkload(const RunConfig& config) {
  RunReport report;
  std::unique_ptr<Workload> w = MakeWorkload(config);
  GSTREAM_CHECK(w != nullptr);
  w->Prepare();
  Ledger ledger;
  if (config.trace) {
    TracedRun(*w, config, &report, &ledger);
  } else {
    MeasuredRun(*w, config, &report, &ledger);
  }
  report.attempted = ledger.attempted;
  report.failed = ledger.failed;
  report.failures = ledger.failures;
  report.correct = ledger.failed == 0;
  report.notes.push_back(
      Fmt("error_rate %.6g (%.0f failed of %.0f attempted)",
          ledger.attempted == 0
              ? 0.0
              : static_cast<double>(ledger.failed) / ledger.attempted,
          static_cast<double>(ledger.failed),
          static_cast<double>(ledger.attempted)));
  return report;
}

}  // namespace e2ebench
