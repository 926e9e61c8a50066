#include "engine/ingest_engine.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_affinity.h"

namespace gstream {

const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kDeadline: return "deadline";
    case OverloadPolicy::kShedIncoming: return "shed-incoming";
  }
  return "unknown";
}

const char* EngineErrorCodeName(EngineErrorCode code) {
  switch (code) {
    case EngineErrorCode::kNone: return "none";
    case EngineErrorCode::kWorkerStalled: return "worker-stalled";
    case EngineErrorCode::kSinkException: return "sink-exception";
  }
  return "unknown";
}

// Item->shard routing uses SplitMix64 as a stateless mixer: independent of
// every sketch hash family, so partitioning never correlates with bucket
// placement, and unseeded so the same item always lands on the same shard
// across engines.  The reduction is Lemire's multiply-shift rather than a
// hardware `%` -- this runs once per update under kHashItem.
size_t IngestEngine::ShardOfItem(ItemId item, size_t n_shards) {
  uint64_t state = item;
  const uint64_t h = SplitMix64(state);
  return static_cast<size_t>(
      (static_cast<__uint128_t>(h) * n_shards) >> 64);
}

// ---------------------------------------------------------------------------
// ProducerHandle

ProducerHandle::ProducerHandle(IngestEngine* engine, size_t index)
    : engine_(engine), index_(index) {
  open_.assign(engine_->shards_.size(), nullptr);
  stats_.shard_updates.assign(engine_->shards_.size(), 0);
  stats_.shard_updates_applied.assign(engine_->shards_.size(), 0);
  stats_.shard_updates_shed.assign(engine_->shards_.size(), 0);
  stats_.shard_ring_highwater.assign(engine_->shards_.size(), 0);
  obs_synced_ = stats_;
}

void ProducerHandle::MaybePinSelf() {
  if (pin_checked_) return;
  pin_checked_ = true;
  if (!engine_->options_.pin_threads) return;
  // Producers take the cpus after the workers in the core map; best
  // effort -- a failed affinity call changes nothing but placement.
  PinCurrentThreadToCpu(static_cast<int>(
      (engine_->shards_.size() + index_) % HardwareThreads()));
}

UpdateChunk* ProducerHandle::ReserveSlot(size_t s) {
  SpscRing<UpdateChunk>& ring = engine_->shards_[s]->lanes[index_]->ring;
  // Injected ring-full storm: pretend the ring is full for param() ns,
  // driving the overload path even when the workers keep up.  Under
  // kBlock that is just a stall; under the bounded policies it exercises
  // timeouts and sheds exactly like real overload.
  uint64_t storm_until = 0;
  if (engine_->fault_ring_full_->ShouldFire()) {
    storm_until = obs::NowNs() + engine_->fault_ring_full_->param();
  }
  UpdateChunk* slot = storm_until != 0 ? nullptr : ring.TryReserve();
  if (slot != nullptr) return slot;
  const OverloadPolicy overload = engine_->options_.overload;
  if (overload == OverloadPolicy::kShedIncoming) {
    // Never waits: the caller sheds the incoming updates.
    return nullptr;
  }
  // Stall path (cold by construction -- the fast path above returned):
  // record how long the full ring blocked us, not merely that it did.
  ++stats_.producer_stalls;
  const uint64_t t0 = obs::NowNs();
  const uint64_t budget = overload == OverloadPolicy::kBlock
                              ? ~0ULL
                              : engine_->options_.stall_budget_ns;
  for (;;) {
    std::this_thread::yield();
    const uint64_t now = obs::NowNs();
    if (now >= storm_until) slot = ring.TryReserve();
    if (slot != nullptr || now - t0 >= budget) break;
  }
  const uint64_t stall_ns = obs::NowNs() - t0;
  stats_.producer_stall_ns += stall_ns;
  engine_->obs_.producer_stall_ns->Record(stall_ns);
  if (slot == nullptr && overload == OverloadPolicy::kDeadline) {
    ++stats_.deadline_timeouts;
  }
  return slot;
}

void ProducerHandle::NoteOccupancy(size_t s) {
  const uint64_t occupancy =
      engine_->shards_[s]->lanes[index_]->ring.SizeApprox();
  if (occupancy > stats_.shard_ring_highwater[s]) {
    stats_.shard_ring_highwater[s] = occupancy;
  }
}

ProducerHandle::RouteOutcome ProducerHandle::AppendToShard(size_t s,
                                                           const Update& u) {
  UpdateChunk*& open = open_[s];
  if (open == nullptr) {
    open = ReserveSlot(s);
    if (open == nullptr) {
      if (engine_->options_.overload == OverloadPolicy::kDeadline) {
        return RouteOutcome::kTimeout;  // update not consumed
      }
      // Shed: the update is accepted-and-dropped.  It still counts as
      // routed to `s` so the per-shard conservation invariant
      // (routed == applied + shed) closes exactly.
      ++stats_.shard_updates[s];
      ++stats_.shard_updates_shed[s];
      ++stats_.updates_shed;
      return RouteOutcome::kShed;
    }
    open->n = 0;
  }
  open->updates[open->n++] = u;
  ++stats_.shard_updates[s];
  if (open->n == engine_->options_.chunk_updates) {
    engine_->shards_[s]->lanes[index_]->ring.Commit();
    open = nullptr;
    ++stats_.chunks_committed;
    NoteOccupancy(s);
  }
  return RouteOutcome::kOk;
}

ProducerHandle::RouteOutcome ProducerHandle::CopyChunkToShard(
    size_t s, const Update* updates, size_t n) {
  UpdateChunk* slot = ReserveSlot(s);
  if (slot == nullptr) {
    if (engine_->options_.overload == OverloadPolicy::kDeadline) {
      return RouteOutcome::kTimeout;  // chunk not consumed
    }
    stats_.shard_updates[s] += n;
    stats_.shard_updates_shed[s] += n;
    stats_.updates_shed += n;
    return RouteOutcome::kShed;
  }
  slot->n = static_cast<uint32_t>(n);
  std::memcpy(slot->updates, updates, n * sizeof(Update));
  engine_->shards_[s]->lanes[index_]->ring.Commit();
  stats_.shard_updates[s] += n;
  ++stats_.chunks_committed;
  NoteOccupancy(s);
  return RouteOutcome::kOk;
}

SubmitResult ProducerHandle::Submit(const Update* updates, size_t n) {
  GSTREAM_CHECK(!closed_.load(std::memory_order_relaxed));
  SubmitResult result;
  if (n == 0) return result;
  MaybePinSelf();
  obs::TraceSpan span("engine/submit", "engine");
  const size_t chunk = engine_->options_.chunk_updates;
  switch (engine_->options_.policy) {
    case PartitionPolicy::kHashItem: {
      const size_t n_shards = engine_->shards_.size();
      for (size_t i = 0; i < n; ++i) {
        const RouteOutcome outcome = AppendToShard(
            IngestEngine::ShardOfItem(updates[i].item, n_shards), updates[i]);
        if (outcome == RouteOutcome::kTimeout) {
          result.accepted = i;
          result.timed_out = true;
          stats_.updates_submitted += i;
          return result;
        }
        if (outcome == RouteOutcome::kShed) ++result.shed;
      }
      break;
    }
    case PartitionPolicy::kRoundRobinChunks: {
      for (size_t i = 0; i < n; i += chunk) {
        const size_t len = std::min(chunk, n - i);
        const size_t s = round_robin_next_;
        const RouteOutcome outcome = CopyChunkToShard(s, updates + i, len);
        if (outcome == RouteOutcome::kTimeout) {
          // The cursor stays on `s`: a retry re-targets the same shard,
          // preserving rotation balance.
          result.accepted = i;
          result.timed_out = true;
          stats_.updates_submitted += i;
          return result;
        }
        round_robin_next_ = (round_robin_next_ + 1) % engine_->shards_.size();
        if (outcome == RouteOutcome::kShed) result.shed += len;
      }
      break;
    }
  }
  result.accepted = n;
  stats_.updates_submitted += n;
  return result;
}

SubmitResult ProducerHandle::SubmitStream(const Stream& stream) {
  return Submit(stream.updates().data(), stream.length());
}

void ProducerHandle::SyncObs() {
  if constexpr (!obs::kEnabled) return;
  engine_->obs_.producer_updates[index_]->Add(stats_.updates_submitted -
                                              obs_synced_.updates_submitted);
  engine_->obs_.producer_stall_counts[index_]->Add(
      stats_.producer_stalls - obs_synced_.producer_stalls);
  engine_->obs_.producer_stall_ns_total[index_]->Add(
      stats_.producer_stall_ns - obs_synced_.producer_stall_ns);
  obs_synced_ = stats_;
}

void ProducerHandle::Close() {
  if (closed_.load(std::memory_order_relaxed)) return;
  for (size_t s = 0; s < engine_->shards_.size(); ++s) {
    IngestEngine::Lane& lane = *engine_->shards_[s]->lanes[index_];
    if (open_[s] != nullptr) {
      if (open_[s]->n > 0) {
        lane.ring.Commit();
        ++stats_.chunks_committed;
        // The final commit is an occupancy event like any other -- without
        // this the high-water under-reports streams whose last chunk is
        // partial.
        NoteOccupancy(s);
      }
      open_[s] = nullptr;
    }
    // Commit-before-done (release) pairs with the worker's acquire load:
    // the worker's post-done emptiness re-check observes the final chunks.
    lane.done.store(true, std::memory_order_release);
  }
  SyncObs();
  // Release everything above (final stats included) to whoever acquires
  // closed() -- the engine's Close() does, before aggregating.
  closed_.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// IngestEngine

IngestEngine::IngestEngine(const IngestEngineOptions& options,
                           std::vector<BatchSink> sinks)
    : options_(options) {
  GSTREAM_CHECK_GE(options.shards, 1u);
  GSTREAM_CHECK_EQ(sinks.size(), options.shards);
  GSTREAM_CHECK_GE(options.chunk_updates, 1u);
  GSTREAM_CHECK_LE(options.chunk_updates, kStreamBatchSize);
  GSTREAM_CHECK_GE(options.max_producers, 1u);
  shards_.reserve(options.shards);
  obs_synced_.shard_updates.assign(options.shards, 0);
  obs_synced_.shard_updates_applied.assign(options.shards, 0);
  obs_synced_.shard_updates_shed.assign(options.shards, 0);
  obs_synced_.shard_ring_highwater.assign(options.shards, 0);
  // Instrument handles are fetched once here (registration is the only
  // locked path); the routing hot path only ever touches per-handle
  // stats, which are mirrored into the registry at quiesce points
  // (SyncObsRegistry / ProducerHandle::SyncObs).
  obs::Registry& registry = obs::Registry::Get();
  obs_.updates_submitted = registry.GetCounter("engine/updates_submitted");
  obs_.chunks_committed = registry.GetCounter("engine/chunks_committed");
  obs_.producer_stalls = registry.GetCounter("engine/producer_stalls");
  obs_.updates_shed = registry.GetCounter("engine/updates_shed");
  obs_.updates_applied = registry.GetCounter("engine/updates_applied");
  obs_.deadline_timeouts = registry.GetCounter("engine/deadline_timeouts");
  obs_.engine_errors = registry.GetCounter("engine/errors");
  obs_.producer_stall_ns =
      registry.GetHistogram("engine/producer_stall_ns");
  obs_.flush_ns = registry.GetHistogram("engine/flush_ns");
  obs::Histogram* const batch_size =
      registry.GetHistogram("engine/batch_size");
  obs::Histogram* const sink_batch_ns =
      registry.GetHistogram("engine/sink_batch_ns");
  obs_.shard_updates.reserve(options.shards);
  obs_.shard_updates_shed.reserve(options.shards);
  obs_.shard_ring_highwater.reserve(options.shards);
  for (size_t s = 0; s < options.shards; ++s) {
    const std::string prefix = "engine/shard/" + std::to_string(s) + "/";
    obs_.shard_updates.push_back(registry.GetCounter(prefix + "updates"));
    obs_.shard_updates_shed.push_back(
        registry.GetCounter(prefix + "updates_shed"));
    obs_.shard_ring_highwater.push_back(
        registry.GetGauge(prefix + "ring_highwater"));
  }
  for (size_t p = 0; p < options.max_producers; ++p) {
    const std::string prefix = "engine/producer/" + std::to_string(p) + "/";
    obs_.producer_updates.push_back(
        registry.GetCounter(prefix + "updates_submitted"));
    obs_.producer_stall_counts.push_back(
        registry.GetCounter(prefix + "stalls"));
    obs_.producer_stall_ns_total.push_back(
        registry.GetCounter(prefix + "stall_ns_total"));
  }
  // Fault sites are registered at construction even when never armed, so
  // the catalog (fault::Registry::Sites) enumerates every injectable
  // failure of a live engine.
  fault::Registry& faults = fault::Registry::Get();
  fault_ring_full_ = faults.GetPoint("engine/ring_full");
  for (size_t s = 0; s < options.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(s, options.ring_chunks,
                                              options.max_producers));
    shards_.back()->sink = std::move(sinks[s]);
    shards_.back()->obs_batch_size = batch_size;
    shards_.back()->obs_sink_batch_ns = sink_batch_ns;
    const std::string prefix = "engine/shard/" + std::to_string(s) + "/";
    shards_.back()->fault_sink_stall =
        faults.GetPoint(prefix + "sink_stall");
    shards_.back()->fault_sink_throw =
        faults.GetPoint(prefix + "sink_throw");
    GSTREAM_CHECK(shards_.back()->sink != nullptr);
  }
  // The handle pool is preallocated so AddProducer() is a lock-free
  // index claim -- no list mutation races with running workers.
  producers_.reserve(options.max_producers);
  for (size_t p = 0; p < options.max_producers; ++p) {
    producers_.emplace_back(
        std::unique_ptr<ProducerHandle>(new ProducerHandle(this, p)));
  }
  // Start workers only after every shard exists; workers touch nothing but
  // their own shard.
  for (auto& shard : shards_) {
    shard->worker = std::thread(&IngestEngine::WorkerLoop, this, shard.get());
    if (options.pin_threads) {
      PinThreadToCpu(shard->worker.native_handle(),
                     static_cast<int>(shard->index % HardwareThreads()));
    }
  }
  if (options.watchdog_ns > 0) {
    watchdog_ = std::thread(&IngestEngine::WatchdogLoop, this);
  }
}

IngestEngine::~IngestEngine() { Close(); }

void IngestEngine::RecordError(EngineErrorCode code, size_t shard,
                               std::string detail) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (error_.code != EngineErrorCode::kNone) return;  // first failure wins
  error_.code = code;
  error_.shard = shard;
  error_.detail = std::move(detail);
  obs_.engine_errors->Increment();
  error_flag_.store(true, std::memory_order_release);
}

EngineError IngestEngine::error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return error_;
}

void IngestEngine::ApplyChunk(Shard* shard, UpdateChunk* chunk) {
  if (shard->poisoned.load(std::memory_order_relaxed)) {
    // Degraded mode: consume without applying so producers drain instead
    // of hanging behind a dead sink; the loss is accounted, not silent.
    shard->shed_updates.fetch_add(chunk->n, std::memory_order_relaxed);
    return;
  }
  if (shard->fault_sink_stall->ShouldFire()) {
    // Injected slow consumer: the worker really sleeps, so backpressure,
    // watchdog, and overload policies see a genuine stall.
    fault::SleepNs(shard->fault_sink_stall->param());
  }
  try {
    if (shard->fault_sink_throw->ShouldFire()) {
      throw std::runtime_error(
          fault::InjectedFaultMessage(shard->fault_sink_throw->name()));
    }
    if constexpr (obs::kEnabled) {
      // Batch-size distribution on every chunk (one slot-private atomic
      // add per 512 updates); sink latency sampled 1-in-kBatchSampleEvery
      // so the clock reads stay far below the kernel cost.
      shard->obs_batch_size->Record(chunk->n);
      if ((shard->drained_chunks++ & (obs::kBatchSampleEvery - 1)) == 0) {
        const uint64_t t0 = obs::NowNs();
        shard->sink(chunk->updates, chunk->n);
        shard->obs_sink_batch_ns->Record(obs::NowNs() - t0);
      } else {
        shard->sink(chunk->updates, chunk->n);
      }
    } else {
      shard->sink(chunk->updates, chunk->n);
    }
    shard->applied_updates.fetch_add(chunk->n, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    shard->poisoned.store(true, std::memory_order_relaxed);
    shard->shed_updates.fetch_add(chunk->n, std::memory_order_relaxed);
    RecordError(EngineErrorCode::kSinkException, shard->index, e.what());
  } catch (...) {
    shard->poisoned.store(true, std::memory_order_relaxed);
    shard->shed_updates.fetch_add(chunk->n, std::memory_order_relaxed);
    RecordError(EngineErrorCode::kSinkException, shard->index,
                "sink threw a non-std::exception");
  }
}

void IngestEngine::WorkerLoop(Shard* shard) {
  const size_t n_lanes = shard->lanes.size();
  for (;;) {
    // Rotate across lanes, one chunk per lane per pass: fairness across
    // producers, and the single-lane case degenerates to the plain SPSC
    // drain loop.
    bool drained = false;
    for (size_t l = 0; l < n_lanes; ++l) {
      SpscRing<UpdateChunk>& ring = shard->lanes[l]->ring;
      UpdateChunk* chunk = ring.Front();
      if (chunk == nullptr) continue;
      drained = true;
      ApplyChunk(shard, chunk);
      ring.Pop();
      // Progress advances on every consumed chunk (applied or shed):
      // the watchdog distinguishes "no work" from "work, no progress".
      shard->progress.fetch_add(1, std::memory_order_relaxed);
    }
    if (drained) continue;
    // Idle: a task posted by RunOnWorkers runs here, never between the
    // chunks of a busy pass.  This thread alone writes task_done.
    const uint64_t epoch = shard->task_epoch.load(std::memory_order_acquire);
    if (epoch != shard->task_done.load(std::memory_order_relaxed)) {
      // The pass above may have read the rings before the producer's last
      // commits; after the acquire they are visible, so drain them first.
      bool all_empty = true;
      for (size_t l = 0; l < n_lanes && all_empty; ++l) {
        all_empty = shard->lanes[l]->ring.Front() == nullptr;
      }
      if (!all_empty) continue;
      (*task_)(shard->index);
      shard->task_done.store(epoch, std::memory_order_release);
      continue;
    }
    // Every lane looked empty this pass: exit only once every lane's
    // `done` is set AND its ring is still empty afterwards.  A producer
    // commits its final chunks before setting done (release), so the
    // acquire loads here ensure the re-check observes them.
    bool all_done = true;
    for (size_t l = 0; l < n_lanes && all_done; ++l) {
      all_done = shard->lanes[l]->done.load(std::memory_order_acquire);
    }
    if (!all_done) {
      std::this_thread::yield();
      continue;
    }
    bool all_empty = true;
    for (size_t l = 0; l < n_lanes && all_empty; ++l) {
      all_empty = shard->lanes[l]->ring.Front() == nullptr;
    }
    if (all_empty) break;
  }
}

void IngestEngine::WatchdogLoop() {
  const uint64_t timeout = options_.watchdog_ns;
  // Poll a few times per deadline so detection latency stays within ~25%
  // of the configured timeout; floor keeps the thread nearly idle.
  const uint64_t poll_ns = std::max<uint64_t>(timeout / 4, 100'000);
  std::vector<uint64_t> last_progress(shards_.size(), 0);
  std::vector<uint64_t> stagnant_since(shards_.size(), obs::NowNs());
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    fault::SleepNs(poll_ns);
    const uint64_t now = obs::NowNs();
    for (size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      // Pending work?  Ring emptiness from a third thread is a heuristic
      // (atomic loads, values may lag) -- exactly right for a watchdog:
      // a lagging read only delays detection by one poll.
      bool pending = false;
      for (const auto& lane : shard.lanes) {
        if (!lane->ring.Empty()) {
          pending = true;
          break;
        }
      }
      const uint64_t progress =
          shard.progress.load(std::memory_order_relaxed);
      if (!pending || progress != last_progress[s]) {
        last_progress[s] = progress;
        stagnant_since[s] = now;
        continue;
      }
      if (now - stagnant_since[s] >= timeout &&
          !shard.poisoned.load(std::memory_order_relaxed)) {
        // Poison first so the worker sheds (and producers unblock) the
        // moment it returns from whatever it is wedged in; then name the
        // hang.
        shard.poisoned.store(true, std::memory_order_relaxed);
        RecordError(
            EngineErrorCode::kWorkerStalled, s,
            "worker " + std::to_string(s) + " advanced no chunk for " +
                std::to_string(now - stagnant_since[s]) +
                " ns with chunks queued (watchdog_ns=" +
                std::to_string(timeout) + ")");
      }
    }
  }
}

ProducerHandle* IngestEngine::AddProducer() {
  GSTREAM_CHECK(!closed_);
  const size_t index = next_producer_.fetch_add(1, std::memory_order_acq_rel);
  GSTREAM_CHECK_LT(index, producers_.size());  // raise options.max_producers
  return producers_[index].get();
}

SubmitResult IngestEngine::Submit(const Update* updates, size_t n) {
  GSTREAM_CHECK(!closed_);
  if (internal_ == nullptr) internal_ = AddProducer();
  return internal_->Submit(updates, n);
}

SubmitResult IngestEngine::SubmitStream(const Stream& stream) {
  return Submit(stream.updates().data(), stream.length());
}

size_t IngestEngine::ClaimedProducers() const {
  return std::min(next_producer_.load(std::memory_order_acquire),
                  producers_.size());
}

IngestStats IngestEngine::stats() const {
  IngestStats agg;
  agg.shard_updates.assign(shards_.size(), 0);
  agg.shard_updates_applied.assign(shards_.size(), 0);
  agg.shard_updates_shed.assign(shards_.size(), 0);
  agg.shard_ring_highwater.assign(shards_.size(), 0);
  const size_t claimed = ClaimedProducers();
  for (size_t p = 0; p < claimed; ++p) {
    const IngestStats& s = producers_[p]->stats_;
    agg.updates_submitted += s.updates_submitted;
    agg.chunks_committed += s.chunks_committed;
    agg.producer_stalls += s.producer_stalls;
    agg.producer_stall_ns += s.producer_stall_ns;
    agg.updates_shed += s.updates_shed;
    agg.deadline_timeouts += s.deadline_timeouts;
    for (size_t i = 0; i < shards_.size(); ++i) {
      agg.shard_updates[i] += s.shard_updates[i];
      agg.shard_updates_shed[i] += s.shard_updates_shed[i];
      agg.shard_ring_highwater[i] = std::max(
          agg.shard_ring_highwater[i], s.shard_ring_highwater[i]);
    }
  }
  // Worker-side halves: applied counts, plus sheds the workers performed
  // (poisoned-shard drains).
  for (size_t i = 0; i < shards_.size(); ++i) {
    const uint64_t applied =
        shards_[i]->applied_updates.load(std::memory_order_relaxed);
    const uint64_t shed =
        shards_[i]->shed_updates.load(std::memory_order_relaxed);
    agg.updates_applied += applied;
    agg.shard_updates_applied[i] = applied;
    agg.updates_shed += shed;
    agg.shard_updates_shed[i] += shed;
  }
  return agg;
}

void IngestEngine::SyncObsRegistry() {
  if constexpr (!obs::kEnabled) return;
  const IngestStats agg = stats();
  obs_.updates_submitted->Add(agg.updates_submitted -
                              obs_synced_.updates_submitted);
  obs_.chunks_committed->Add(agg.chunks_committed -
                             obs_synced_.chunks_committed);
  obs_.producer_stalls->Add(agg.producer_stalls -
                            obs_synced_.producer_stalls);
  obs_.updates_shed->Add(agg.updates_shed - obs_synced_.updates_shed);
  obs_.updates_applied->Add(agg.updates_applied -
                            obs_synced_.updates_applied);
  obs_.deadline_timeouts->Add(agg.deadline_timeouts -
                              obs_synced_.deadline_timeouts);
  for (size_t s = 0; s < shards_.size(); ++s) {
    obs_.shard_updates[s]->Add(agg.shard_updates[s] -
                               obs_synced_.shard_updates[s]);
    obs_.shard_updates_shed[s]->Add(agg.shard_updates_shed[s] -
                                    obs_synced_.shard_updates_shed[s]);
    obs_.shard_ring_highwater[s]->UpdateMax(
        static_cast<int64_t>(agg.shard_ring_highwater[s]));
  }
  obs_synced_ = agg;
}

EngineError IngestEngine::Flush() {
  // Closed engines are already quiescent; the barrier below would also
  // deadlock-free trivially, but skipping keeps Flush safe to layer over
  // any lifecycle stage.
  if (closed_) return error();
  obs::TraceSpan span("engine/flush", "engine");
  obs::ScopedTimer timer(obs_.flush_ns);
  // A poisoned worker still *consumes* (shedding), so rings drain after
  // sink exceptions and the barrier completes normally.  Only a wedged
  // worker -- the case the watchdog names -- cannot drain; once the
  // error is up, give it a grace period (long enough for poison to take
  // effect on a merely-slow sink call) and then return the named error
  // instead of inheriting the hang.
  const uint64_t grace_ns =
      options_.watchdog_ns > 0 ? 2 * options_.watchdog_ns : 0;
  uint64_t error_seen_ns = 0;
  bool degraded = false;
  for (auto& shard : shards_) {
    if (degraded) break;
    for (auto& lane : shard->lanes) {
      if (degraded) break;
      while (!lane->ring.Empty()) {
        if (grace_ns > 0 &&
            error_flag_.load(std::memory_order_acquire)) {
          const uint64_t now = obs::NowNs();
          if (error_seen_ns == 0) {
            error_seen_ns = now;
          } else if (now - error_seen_ns >= grace_ns) {
            degraded = true;
            break;
          }
        }
        std::this_thread::yield();
      }
    }
  }
  SyncObsRegistry();
  return error();
}

void IngestEngine::RunOnWorkers(const std::function<void(size_t)>& task) {
  if (closed_) {
    // The workers are joined; their sinks are quiescent and ours to read.
    for (size_t s = 0; s < shards_.size(); ++s) task(s);
    return;
  }
  task_ = &task;
  ++task_epoch_;
  for (auto& shard : shards_) {
    shard->task_epoch.store(task_epoch_, std::memory_order_release);
  }
  for (auto& shard : shards_) {
    while (shard->task_done.load(std::memory_order_acquire) != task_epoch_) {
      std::this_thread::yield();
    }
  }
  task_ = nullptr;
}

IngestProducerState IngestEngine::SnapshotProducerState() const {
  // Checkpoints cover the single-producer lifecycle: the only claimable
  // state is the internal handle's.
  GSTREAM_CHECK_EQ(ClaimedProducers(), internal_ == nullptr ? 0u : 1u);
  // Bit-exact resume is only defined under the lossless policy: a run
  // that shed or timed out cannot be replayed from a cursor.
  GSTREAM_CHECK(options_.overload == OverloadPolicy::kBlock);
  IngestProducerState state;
  state.staged.resize(shards_.size());
  if (internal_ == nullptr) {
    state.stats.shard_updates.assign(shards_.size(), 0);
    state.stats.shard_updates_applied.assign(shards_.size(), 0);
    state.stats.shard_updates_shed.assign(shards_.size(), 0);
    state.stats.shard_ring_highwater.assign(shards_.size(), 0);
    return state;
  }
  state.round_robin_next = internal_->round_robin_next_;
  state.stats = internal_->stats_;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const UpdateChunk* open = internal_->open_[s];
    if (open != nullptr) {
      state.staged[s].assign(open->updates, open->updates + open->n);
    }
  }
  return state;
}

void IngestEngine::RestoreProducerState(const IngestProducerState& state) {
  GSTREAM_CHECK(!closed_);
  GSTREAM_CHECK(options_.overload == OverloadPolicy::kBlock);
  if (internal_ == nullptr) internal_ = AddProducer();
  // Restore targets a fresh single-producer engine: nothing submitted,
  // no external handles claimed.
  GSTREAM_CHECK_EQ(ClaimedProducers(), 1u);
  GSTREAM_CHECK_EQ(internal_->stats_.updates_submitted, 0u);
  GSTREAM_CHECK_EQ(state.staged.size(), shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    GSTREAM_CHECK(internal_->open_[s] == nullptr);
    // A full chunk would have been committed, never staged.
    GSTREAM_CHECK_LT(state.staged[s].size(), options_.chunk_updates);
    for (const Update& u : state.staged[s]) {
      UpdateChunk*& open = internal_->open_[s];
      if (open == nullptr) {
        // Fresh engine, empty rings: reservation cannot fail under
        // kBlock (checked above).
        open = internal_->ReserveSlot(s);
        GSTREAM_CHECK(open != nullptr);
        open->n = 0;
      }
      open->updates[open->n++] = u;
    }
  }
  // Adopt the counters last, wholesale: the re-staging above must not be
  // double-counted (the snapshot's stats already include those updates).
  internal_->round_robin_next_ = state.round_robin_next;
  internal_->stats_ = state.stats;
  internal_->stats_.shard_updates.resize(shards_.size(), 0);
  // Non-persisted telemetry restarts at zero, exactly like the GCKP
  // decode path (which never wrote it): producer_stall_ns,
  // shard_ring_highwater, and the overload counters describe *this*
  // process's wall-clock, ring, and shed behavior, and the header
  // contract promises a resumed engine restarts them.  In-process
  // snapshots carry live values; discard them so both restore paths
  // agree bit for bit.  (Under the required kBlock policy the shed and
  // timeout counters are zero anyway; the assignments keep the vectors
  // sized for stats().)
  internal_->stats_.producer_stall_ns = 0;
  internal_->stats_.updates_shed = 0;
  internal_->stats_.deadline_timeouts = 0;
  internal_->stats_.updates_applied = 0;
  internal_->stats_.shard_updates_applied.assign(shards_.size(), 0);
  internal_->stats_.shard_updates_shed.assign(shards_.size(), 0);
  internal_->stats_.shard_ring_highwater.assign(shards_.size(), 0);
  // Never re-mirror adopted history into this process's registry (it
  // describes work this process did not perform).
  internal_->obs_synced_ = internal_->stats_;
  obs_synced_ = stats();
}

EngineError IngestEngine::Close() {
  if (closed_) return error();
  obs::TraceSpan span("engine/close", "engine");
  closed_ = true;
  if (internal_ != nullptr) internal_->Close();
  const size_t claimed = ClaimedProducers();
  for (size_t p = 0; p < claimed; ++p) {
    // External handles must be closed by their owning threads first: the
    // engine cannot safely flush another thread's staging chunks.  The
    // acquire in closed() is also the happens-before edge that makes the
    // stats aggregation below race-free.
    GSTREAM_CHECK(producers_[p]->closed());
  }
  for (size_t p = claimed; p < producers_.size(); ++p) {
    // Unclaimed lanes never had a producer; mark them done so workers can
    // exit.
    for (auto& shard : shards_) {
      shard->lanes[p]->done.store(true, std::memory_order_release);
    }
  }
  // The watchdog stays up through the joins: a worker that wedges while
  // draining its final chunks still gets poisoned (and the hang named).
  for (auto& shard : shards_) shard->worker.join();
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  SyncObsRegistry();
  return error();
}

}  // namespace gstream
