// Multi-threaded sharded ingestion engine with a multi-producer front end.
//
// The sketches in this library are linear: their state is a sum of
// per-update contributions, and integer addition commutes.  Partitioning a
// stream across N workers that own same-seed sketch replicas and summing
// the replicas (MergeFrom) therefore reproduces the sequential sketch state
// *bit for bit* -- sharding is exact, not approximate.  The engine turns
// that observation into a subsystem: producer threads submit runs of
// updates, the engine frames them into chunks of at most `chunk_updates`
// (kStreamBatchSize by default, the same framing Stream::ForEachBatch
// uses), routes each chunk to a worker according to the partitioning
// policy, and each worker drains its fixed-capacity SPSC rings straight
// into its sink's UpdateBatch kernel.  Close() joins the workers and
// leaves the per-shard sinks ready to merge.
//
// Multi-producer ingest (ProducerHandle): up to `max_producers` threads
// may feed one engine concurrently.  Each producer claims a handle via
// AddProducer() and owns one private SPSC *lane* (ring + staging chunk)
// per shard -- lanes fan into the shard worker, which rotates across them,
// so every ring keeps exactly one writer and one reader and the lock-free
// SPSC protocol carries over unchanged.  Producers submitting disjoint
// stream slices end bit-identical to a sequential pass over the
// concatenated slices under kHashItem and kRoundRobinChunks: each
// producer's chunk framing is deterministic, and merge order across lanes
// is irrelevant by linearity (docs/engine.md has the full happens-before
// argument).  IngestEngine::Submit() remains the single-producer
// convenience: it lazily claims an internal handle.
//
// Partitioning policies:
//   * kHashItem        -- shard = mix(item) % N: each shard sees a fixed
//                         sub-domain, so per-shard sketches are sketches of
//                         disjoint sub-vectors (useful when shards are also
//                         queried individually).  Updates are scattered
//                         into per-shard staging chunks.
//   * kRoundRobinChunks-- whole chunks rotate across shards (per producer):
//                         perfectly load-balanced regardless of item skew.
// Both are exact partitions of the stream, so merge-after-close is exact
// by linearity.
//
// Backpressure: memory stays bounded at
// shards * max_producers * ring_chunks * 8 KiB regardless of policy; what
// happens when a destination ring is full is the engine's *overload
// policy* (OverloadPolicy below, docs/robustness.md).  kBlock (default)
// spins + yields until the worker frees a slot -- the bit-exact path.
// kDeadline bounds the wait by options.stall_budget_ns and makes Submit
// return a typed SubmitResult instead of spinning forever.  kShedIncoming
// drops data instead of waiting, with per-shard shed counters making
// `routed == applied + shed` an exact conservation invariant.
// Stall counts and stall time are reported per producer and in the
// aggregated stats() under every policy.
//
// Failure reporting: a worker whose sink throws, or one the watchdog
// (options.watchdog_ns) catches making no progress past its deadline, is
// *poisoned*: it stops applying and sheds queued chunks (so producers
// never hang on a dead shard), and the first failure is recorded as a
// named EngineError that Flush()/Close() return and error() exposes.
// Recovery is checkpoint/restart from the last good GCKP image
// (docs/robustness.md has the recipe).
//
// Core-aware placement: with options.pin_threads (default off), shard
// worker s is pinned to cpu `s % HardwareThreads()` and producer p pins
// itself to cpu `(shards + p) % HardwareThreads()` on its first Submit --
// best effort, never fatal (util/thread_affinity.h).

#ifndef GSTREAM_ENGINE_INGEST_ENGINE_H_
#define GSTREAM_ENGINE_INGEST_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/spsc_ring.h"
#include "obs/metrics.h"
#include "stream/stream.h"
#include "util/fault.h"

namespace gstream {

enum class PartitionPolicy {
  kHashItem,
  kRoundRobinChunks,
};

// What a producer does when its destination ring is full (see the
// backpressure section of the header comment).  kBlock is the only policy
// with the bit-exact guarantee; the others trade completeness for bounded
// latency and account exactly for what they dropped.
enum class OverloadPolicy {
  // Spin + yield until the worker frees a slot.  Unbounded wait, zero
  // loss: the default, and the policy every bit-exactness pin runs under.
  kBlock,
  // Wait at most options.stall_budget_ns, then give up: Submit() returns
  // a SubmitResult with timed_out set and the tail of the batch
  // unconsumed (the caller owns the retry/drop decision).  Nothing is
  // shed by the engine itself.
  kDeadline,
  // Prefer queued data: drop the incoming updates immediately, never
  // wait.  The cheapest policy under sustained overload.
  kShedIncoming,
};

const char* OverloadPolicyName(OverloadPolicy policy);

// Engine-level failure, reported once (first failure wins) and surfaced by
// Flush()/Close()/error().  kNone means healthy.
enum class EngineErrorCode {
  kNone,
  // The watchdog saw a worker with queued chunks make no progress for
  // options.watchdog_ns: a silent hang converted into a named error.
  kWorkerStalled,
  // A sink threw; the worker caught it, poisoned the shard, and sheds
  // everything further routed there.
  kSinkException,
};

const char* EngineErrorCodeName(EngineErrorCode code);

struct EngineError {
  EngineErrorCode code = EngineErrorCode::kNone;
  size_t shard = 0;     // meaningless when code == kNone
  std::string detail;   // human-readable specifics (exception text, ...)
  bool ok() const { return code == EngineErrorCode::kNone; }
};

// What Submit() did with the batch it was handed.  Under kBlock the result
// is trivially accepted == n; the other policies make it informative.
struct SubmitResult {
  // Updates the engine took ownership of: applied-or-shed, counted in
  // updates_submitted.  Always a prefix of the batch ([0, accepted)).
  uint64_t accepted = 0;
  // Of `accepted`, updates this call shed (kShedIncoming).  Chunks a
  // poisoned worker drains later are not visible here -- only in
  // stats().updates_shed.
  uint64_t shed = 0;
  // kDeadline only: the stall budget ran out; updates[accepted..n) were
  // not consumed and remain the caller's.
  bool timed_out = false;
  bool ok() const { return !timed_out; }
};

struct IngestEngineOptions {
  // Worker threads, each owning one sink.
  size_t shards = 4;
  PartitionPolicy policy = PartitionPolicy::kRoundRobinChunks;
  // Ring capacity per lane, in chunks (rounded up to a power of two).
  size_t ring_chunks = 32;
  // Updates per chunk; must be in [1, kStreamBatchSize].  Keeping the
  // default preserves ForEachBatch framing.
  size_t chunk_updates = kStreamBatchSize;
  // Producer lanes per shard.  AddProducer() may be called at most this
  // many times (the engine's own Submit() claims one lazily, like any
  // other producer).  Lanes are preallocated at construction, so ring
  // memory scales with shards * max_producers * ring_chunks.
  size_t max_producers = 1;
  // Pin worker threads (at construction) and producer threads (at first
  // Submit) to cores as described in the header comment.  Best effort;
  // default off.
  bool pin_threads = false;
  // Full-ring behavior.
  OverloadPolicy overload = OverloadPolicy::kBlock;
  // Per-reserve wait bound for kDeadline, in nanoseconds.
  // Ignored under kBlock (unbounded) and kShedIncoming (never waits).
  uint64_t stall_budget_ns = 5'000'000;  // 5 ms
  // Watchdog deadline: a worker with queued chunks that advances no chunk
  // for this long is declared stalled (EngineErrorCode::kWorkerStalled)
  // and poisoned so producers unblock.  0 (default) disables the
  // watchdog thread entirely -- zero overhead, today's behavior.
  uint64_t watchdog_ns = 0;
};

// One framed chunk as it crosses a ring: a fixed 8 KiB update array plus
// its fill count.
struct UpdateChunk {
  uint32_t n = 0;
  Update updates[kStreamBatchSize];
};

// Counters accumulated over an engine's lifetime; stable after Close().
// The same quantities (plus latency distributions) are mirrored into the
// process-wide metrics registry under "engine/..." names at every quiesce
// point -- this struct remains the exact per-engine view (docs/
// observability.md).
struct IngestStats {
  uint64_t updates_submitted = 0;
  uint64_t chunks_committed = 0;
  // Times a producer found a destination ring full and had to wait --
  // nonzero means the workers, not the feed, were the bottleneck.
  uint64_t producer_stalls = 0;
  // Total nanoseconds producers spent blocked on full rings, so
  // backpressure is quantifiable, not just countable.  (The per-stall
  // distribution is the registry histogram "engine/producer_stall_ns".)
  // Wall-clock telemetry, not routing state: checkpoints do not persist
  // it, and a resumed engine restarts it at zero.
  uint64_t producer_stall_ns = 0;
  // Updates dropped by the overload policy (producer-side incoming sheds
  // plus worker-side poisoned-shard sheds).  Telemetry like
  // producer_stall_ns: never persisted, and identically zero under
  // kBlock on a healthy engine.
  uint64_t updates_shed = 0;
  // Submit() calls that hit the kDeadline stall budget and returned
  // timed_out.  The unconsumed updates are NOT in updates_submitted.
  uint64_t deadline_timeouts = 0;
  // Updates actually applied to sinks, per the workers' own counters
  // (engine aggregation only; always zero in a single producer's view).
  // The conservation invariant, exact per shard at any quiescent point:
  //   shard_updates[s] == shard_updates_applied[s] + shard_updates_shed[s]
  uint64_t updates_applied = 0;
  // Updates routed to each shard (producer-side accounting).  Includes
  // updates later shed -- "routed" means the engine accepted them.
  std::vector<uint64_t> shard_updates;
  // Per-shard halves of the conservation invariant above.
  std::vector<uint64_t> shard_updates_applied;
  std::vector<uint64_t> shard_updates_shed;
  // Highest lane occupancy (in chunks) observed per shard at commit time
  // (max across that shard's lanes).  Capacity-saturated values mean the
  // shard's worker is the bottleneck.  Telemetry like producer_stall_ns:
  // not persisted by checkpoints.
  std::vector<uint64_t> shard_ring_highwater;
};

// Producer-side routing state beyond the sinks: everything a checkpoint
// must carry so a fresh engine resumes routing *exactly* where this one
// stopped.  Composite sinks (top-k trackers) depend on chunk framing, not
// just on the multiset of updates, so resuming bit-exactly requires
// replaying the staged partial chunks and the round-robin position -- not
// merely the stream cursor.  Snapshot/restore cover the engine's internal
// default producer only (the checkpointed single-producer lifecycle);
// engines with external ProducerHandles are not checkpointable.
struct IngestProducerState {
  size_t round_robin_next = 0;
  IngestStats stats;
  // Per-shard reserved-but-uncommitted staging contents (kHashItem
  // scatter); always shorter than one chunk, empty under the other
  // policies.
  std::vector<std::vector<Update>> staged;
};

// A shard's consumer: called once per drained chunk, on that shard's worker
// thread only.  Typically [s](const Update* u, size_t n) {
// s->UpdateBatch(u, n); } for a sketch replica `s`.
using BatchSink = std::function<void(const Update*, size_t)>;

class IngestEngine;

// One producer's private front end into the engine: a claimed lane index
// plus per-shard staging chunks, routing cursor, and stats.  Obtained from
// IngestEngine::AddProducer(); owned by the engine (handles stay valid
// until the engine is destroyed).
//
// Threading contract: all calls on one handle must come from one thread at
// a time (the handle is the per-thread object -- one per producer thread
// is the point).  Different handles are fully concurrent.  The owning
// thread must call Close() before the engine's Close(); the engine
// CHECK-fails on a still-open external handle, because it cannot safely
// flush another thread's staging chunks.
class ProducerHandle {
 public:
  ProducerHandle(const ProducerHandle&) = delete;
  ProducerHandle& operator=(const ProducerHandle&) = delete;

  // Routes `n` contiguous updates according to the engine's partitioning
  // policy.  A full destination lane is handled per options.overload:
  // kBlock spins (the returned result is trivially all-accepted);
  // kDeadline may return early with timed_out set and the batch tail
  // unconsumed; kShedIncoming always consumes the whole batch but may
  // drop part of it (result.shed, stats().updates_shed).
  SubmitResult Submit(const Update* updates, size_t n);
  SubmitResult SubmitStream(const Stream& stream);

  // Commits this producer's partial staging chunks and marks its lanes
  // done.  Idempotent; must run on the owning thread, before the engine's
  // Close().  After Close() the handle's stats are stable and may be read
  // from any thread that observed closed() == true.
  void Close();

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  size_t index() const { return index_; }

  // This producer's own routing counters.  Exact between this thread's
  // Submit calls; other threads may read only after closed().
  const IngestStats& stats() const { return stats_; }

 private:
  friend class IngestEngine;
  ProducerHandle(IngestEngine* engine, size_t index);

  // What one routing step did under the overload policy.
  enum class RouteOutcome { kOk, kShed, kTimeout };

  // Returns a free slot on this producer's lane on shard `s`, or nullptr
  // when the overload policy gave up (deadline exhausted, or a shed
  // policy declining to wait).  kBlock never returns nullptr.
  UpdateChunk* ReserveSlot(size_t s);
  // Appends one update to the shard's open staging chunk, committing when
  // the chunk fills.  kShed means the update was counted and dropped;
  // kTimeout means it was not consumed at all.
  RouteOutcome AppendToShard(size_t s, const Update& u);
  // Copies one pre-framed chunk into the shard's lane (same outcome
  // contract, over the whole chunk).
  RouteOutcome CopyChunkToShard(size_t s, const Update* updates, size_t n);
  // Tracks the occupancy high-water of this producer's lane on shard `s`
  // after a commit (producer-side; see SpscRing::SizeApprox).
  void NoteOccupancy(size_t s);
  // One-shot best-effort self-pinning (options.pin_threads).
  void MaybePinSelf();
  // Mirrors this producer's counter deltas into the per-producer registry
  // instruments ("engine/producer/<i>/...").  Called at Close().
  void SyncObs();

  IngestEngine* const engine_;
  const size_t index_;  // lane index on every shard
  // Per-shard reserved-but-uncommitted slots being filled (hash scatter).
  std::vector<UpdateChunk*> open_;
  size_t round_robin_next_ = 0;
  IngestStats stats_;
  IngestStats obs_synced_;
  bool pin_checked_ = false;
  // Set last in Close() (release); the engine's Close() acquires it, which
  // is the happens-before edge that makes reading stats_ from the engine
  // thread race-free.
  std::atomic<bool> closed_{false};
};

// The engine proper.  Lifecycle: construct (workers start immediately) ->
// Submit() / AddProducer()+Submit() -> close every external handle ->
// Close() -> inspect sinks / stats.  Sinks are owned by the caller and
// must outlive the engine; ShardedIngestor (sharded_ingestor.h) packages
// the common replicate-ingest-merge pattern on top.
class IngestEngine {
 public:
  IngestEngine(const IngestEngineOptions& options,
               std::vector<BatchSink> sinks);
  ~IngestEngine();

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  // Claims the next producer lane.  Thread-safe; CHECK-fails past
  // options.max_producers.  The returned handle is engine-owned and valid
  // for the engine's lifetime; all its methods must be called from the
  // claiming producer's thread.
  ProducerHandle* AddProducer();

  // Single-producer convenience: routes `n` contiguous updates through a
  // lazily claimed internal handle, under the engine's overload policy
  // (see ProducerHandle::Submit for the result contract).  Counts against
  // max_producers like any other producer.
  SubmitResult Submit(const Update* updates, size_t n);

  // Convenience: submits the whole stream in arrival order.
  SubmitResult SubmitStream(const Stream& stream);

  // Closes the internal handle, verifies every external handle is closed,
  // signals end-of-stream, and joins the workers.  Idempotent; after
  // Close() the sinks hold their final state.  Returns the first engine
  // error recorded over the run (EngineError::ok() on a healthy engine);
  // on a degraded engine the sinks hold the applied prefix and the shed
  // counters account exactly for the rest.
  EngineError Close();

  // Quiesce barrier: returns once every *committed* chunk has been applied
  // to its sink (rings observed empty; see SpscRing::Empty for the
  // happens-before argument).  Staged partial chunks are deliberately NOT
  // flushed -- committing them would change chunk framing versus an
  // uninterrupted run, which composite sinks observe.  Callers must not
  // Submit concurrently (quiesce means quiesce); after Flush() the sinks
  // may be read race-free until the next Submit, the workers stay parked
  // on their rings.  On a closed engine this is a no-op: every chunk was
  // applied before the workers joined, so the barrier is trivially
  // satisfied -- callers layering checkpoint/serving logic on a finished
  // ingest must not crash.  Returns error() -- and if a worker was
  // declared stalled by the watchdog, gives up waiting on its rings after
  // a grace period instead of spinning forever, so the caller gets the
  // named error rather than the silent hang the watchdog exists to
  // prevent (the quiesce guarantee then covers healthy shards only).
  EngineError Flush();

  // The first failure recorded on this engine (kNone while healthy).
  // Thread-safe; stable once Close() returned.
  EngineError error() const;

  // Runs task(s) for every shard s on shard s's own worker thread, all
  // shards in parallel, and returns once every call has finished: the way
  // to read or serialize a sink without stopping the worker that owns it
  // (the checkpoint capture runs here).  The worker picks the task up in
  // its idle branch, so it runs after the worker has drained every chunk
  // committed before this call.  Producer thread only, between its own
  // Submit calls, on a single-producer engine: call it after a Flush()
  // that returned ok -- a worker the watchdog named stalled may never
  // reach its idle branch.  On a closed engine the calls run here, one
  // shard after another.  Release/acquire on the per-shard task epochs
  // orders everything the caller did before the call before each task,
  // and each task before the return (docs/engine.md).
  void RunOnWorkers(const std::function<void(size_t shard)>& task);

  // The producer-side routing state at a quiescent point (call Flush()
  // first if sink state is being captured alongside).  Pure read.
  // Single-producer engines only (internal handle; CHECK-fails if
  // external handles were claimed).
  IngestProducerState SnapshotProducerState() const;

  // Restores a snapshot into a freshly constructed engine (nothing
  // submitted yet, same shard count and chunk framing): re-stages the
  // partial chunks without re-counting them, then adopts the counters and
  // round-robin cursor.  Non-persisted telemetry (producer_stall_ns,
  // shard_ring_highwater) restarts at zero -- matching both the stats
  // contract above and what a GCKP checkpoint round-trip decodes.
  // Subsequent Submit calls continue as if this engine had routed
  // everything the snapshot's stats describe.
  void RestoreProducerState(const IngestProducerState& state);

  size_t shards() const { return shards_.size(); }
  size_t max_producers() const { return producers_.size(); }
  bool closed() const { return closed_; }

  // Aggregated counters across all claimed producers: per-field sums,
  // except shard_ring_highwater which is the per-shard max across lanes.
  // Exact at quiescent points (no producer mid-Submit) and final once
  // Close() has returned; with live external producers a call is racy and
  // must be avoided (single-producer engines may read between their own
  // Submit calls, as before).  Returned by value, so concurrent const
  // callers at a quiescent point each aggregate into their own copy.
  IngestStats stats() const;

  // The shard an item routes to under kHashItem with `n_shards` shards.
  // Exposed so tests and callers can reason about sub-domain ownership.
  static size_t ShardOfItem(ItemId item, size_t n_shards);

 private:
  friend class ProducerHandle;

  // One producer's private ring into one shard.  The done flag gets its
  // own cache line: an idle worker polling it must not ping-pong the
  // producer's ring counters.
  struct Lane {
    explicit Lane(size_t ring_chunks) : ring(ring_chunks) {}
    SpscRing<UpdateChunk> ring;
    alignas(64) std::atomic<bool> done{false};
  };

  struct Shard {
    Shard(size_t index, size_t ring_chunks, size_t n_lanes) : index(index) {
      lanes.reserve(n_lanes);
      for (size_t l = 0; l < n_lanes; ++l) {
        lanes.push_back(std::make_unique<Lane>(ring_chunks));
      }
    }
    const size_t index;  // position in shards_ / stats().shard_updates
    // Lane l belongs to producer l; workers rotate across lanes, one
    // chunk per lane per pass, so no producer can starve another.
    std::vector<std::unique_ptr<Lane>> lanes;
    BatchSink sink;
    std::thread worker;
    // Worker-side instrumentation (obs handles are process-lifetime;
    // fetched once at engine construction): per-chunk batch-size samples
    // plus 1-in-kBatchSampleEvery sink-latency timings.
    obs::Histogram* obs_batch_size = nullptr;
    obs::Histogram* obs_sink_batch_ns = nullptr;
    uint64_t drained_chunks = 0;  // worker-side sampling counter
    // Worker-side accounting, read by stats()/the watchdog from other
    // threads: atomics with relaxed ordering (exact at quiescent points,
    // monotone heuristics in between).
    std::atomic<uint64_t> applied_updates{0};
    std::atomic<uint64_t> shed_updates{0};
    // Chunks consumed (applied or shed): the watchdog's
    // progress signal.
    std::atomic<uint64_t> progress{0};
    // Set by the worker on a sink exception or by the watchdog on a
    // stall: a poisoned worker applies nothing further and sheds every
    // queued chunk, so producers drain instead of hanging.
    std::atomic<bool> poisoned{false};
    // Fault sites, fetched at engine construction ("engine/shard/<i>/
    // sink_stall" sleeps param() ns before the sink; ".../sink_throw"
    // raises in place of the sink call).
    fault::FaultPoint* fault_sink_stall = nullptr;
    fault::FaultPoint* fault_sink_throw = nullptr;
    // RunOnWorkers handshake: the producer publishes the task and then
    // bumps task_epoch (release); the idle worker acquires it, runs the
    // task and stores the same value to task_done (release), which the
    // producer acquires.  Their own cache line: the idle worker polls
    // task_epoch between ring checks.
    alignas(64) std::atomic<uint64_t> task_epoch{0};
    std::atomic<uint64_t> task_done{0};
  };

  void WorkerLoop(Shard* shard);
  // One chunk through the sink, with fault injection, poisoned-shard
  // shedding, exception capture, and applied/shed accounting.
  void ApplyChunk(Shard* shard, UpdateChunk* chunk);
  // Watchdog thread body (only started when options.watchdog_ns > 0).
  void WatchdogLoop();
  // Records the first engine error (later ones are dropped -- the first
  // failure is the cause, the rest are symptoms).
  void RecordError(EngineErrorCode code, size_t shard, std::string detail);

  // Number of handles claimed so far, clamped to the preallocated pool.
  size_t ClaimedProducers() const;
  // Mirrors aggregated-stats deltas since the last sync into the
  // process-wide registry ("engine/..." instruments).  Called at quiesce
  // points (Flush/Close) so the hot routing path never touches shared
  // counters.
  void SyncObsRegistry();

  IngestEngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Preallocated handle pool; producers_[i] owns lane i on every shard.
  // Claimed in index order by next_producer_.
  std::vector<std::unique_ptr<ProducerHandle>> producers_;
  std::atomic<size_t> next_producer_{0};
  ProducerHandle* internal_ = nullptr;  // lazily claimed by Submit()
  bool closed_ = false;

  // The task RunOnWorkers is running and its epoch (producer-written,
  // published to the workers by each shard's task_epoch).
  const std::function<void(size_t)>* task_ = nullptr;
  uint64_t task_epoch_ = 0;

  // First-error-wins failure record; error_flag_ is the lock-free "is
  // anything wrong" fast check (Flush's wait loop, producers).
  mutable std::mutex error_mu_;
  EngineError error_;
  std::atomic<bool> error_flag_{false};

  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};

  // "engine/ring_full" fault site: a firing evaluation makes the producer
  // treat its ring as full for param() ns -- the ring-full-storm lever.
  fault::FaultPoint* fault_ring_full_ = nullptr;

  // Registry handles (process-lifetime) + the stats values already pushed,
  // so SyncObsRegistry adds exact deltas even across RestoreProducerState.
  struct EngineObs {
    obs::Counter* updates_submitted = nullptr;
    obs::Counter* chunks_committed = nullptr;
    obs::Counter* producer_stalls = nullptr;
    obs::Counter* updates_shed = nullptr;
    obs::Counter* updates_applied = nullptr;
    obs::Counter* deadline_timeouts = nullptr;
    obs::Counter* engine_errors = nullptr;
    obs::Histogram* producer_stall_ns = nullptr;
    obs::Histogram* flush_ns = nullptr;
    std::vector<obs::Counter*> shard_updates;
    std::vector<obs::Counter*> shard_updates_shed;
    std::vector<obs::Gauge*> shard_ring_highwater;
    // Per-producer instruments ("engine/producer/<i>/..."), mirrored by
    // each handle at its Close().
    std::vector<obs::Counter*> producer_updates;
    std::vector<obs::Counter*> producer_stall_counts;
    std::vector<obs::Counter*> producer_stall_ns_total;
  };
  EngineObs obs_;
  IngestStats obs_synced_;
};

}  // namespace gstream

#endif  // GSTREAM_ENGINE_INGEST_ENGINE_H_
