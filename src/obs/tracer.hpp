// obs::Tracer — per-shard trace lanes plus a shared control lane.
//
// The tracer owns one lock-free SPSC TraceRing per shard worker (the only
// thread allowed to EmitShard on that lane) and one additional
// mutex-guarded *control* lane for every emitter that is not a shard
// worker: producers shedding/dropping at admission, Flush callers, the
// model registry's hot-swaps, the retrain worker, and the round scheduler.
// The split keeps the scoring hot path lock-free while still capturing the
// whole event taxonomy in one drainable trace.
//
// Sampling: SampleBatch(shard) implements deterministic 1-in-N batch
// sampling with a per-lane counter owned by the producer — batch k of a
// shard is traced iff k % sample_every == 0, independent of timing, so
// traces are reproducible. Control-lane events are rare and always
// recorded (subject to the master enable switch).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_ring.hpp"

namespace omg::obs {

/// Tracer geometry and sampling policy.
struct TracerOptions {
  /// Number of shard lanes (== the serving runtime's shard count).
  std::size_t shard_lanes = 1;
  /// Slots per lane ring; rounded up to a power of two. When a lane
  /// overflows, its oldest events are evicted (counted, not blocking).
  std::size_t ring_capacity = 4096;
  /// Trace 1 of every N batches per shard lane (1 = every batch).
  std::uint64_t sample_every = 1;
  /// Master switch; a disabled tracer records nothing but keeps its rings
  /// (set_enabled can turn it back on).
  bool enabled = true;
};

/// Everything drained from one lane.
struct LaneTrace {
  /// "shard-<i>" or "control".
  std::string name;
  /// Events in push order (timestamps are monotone per lane).
  std::vector<TraceEvent> events;
  /// Events lost to ring overwrite since the previous drain.
  std::size_t evicted = 0;
  /// Events ever recorded on the lane.
  std::uint64_t recorded = 0;
};

/// One Drain() result: shard lanes in index order, control lane last.
struct TraceSnapshot {
  std::vector<LaneTrace> lanes;

  /// Sum of events across lanes.
  std::size_t TotalEvents() const;
};

/// See the file comment. Emit paths are wait-free (shard lanes) or take one
/// short mutex (control lane); Drain may run concurrently with emitters.
class Tracer {
 public:
  explicit Tracer(TracerOptions options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::size_t shard_lanes() const { return shard_rings_.size(); }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Deterministic 1-in-N sampling decision for the next batch on `shard`.
  /// Shard worker thread only (advances that lane's producer-owned
  /// counter). Always false while disabled, without consuming a tick.
  bool SampleBatch(std::size_t shard);

  /// Records an event on `shard`'s lane. Shard worker thread only.
  /// Callers gate span events on SampleBatch's decision for the batch.
  void EmitShard(std::size_t shard, TraceEventKind kind, TracePhase phase,
                 std::uint64_t stream_id = TraceEvent::kNoStream,
                 std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  /// Records an event on the shared control lane. Any thread.
  void EmitControl(TraceEventKind kind, TracePhase phase,
                   std::uint64_t stream_id = TraceEvent::kNoStream,
                   std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  /// Drains every lane (shard lanes first, control last). Thread-safe and
  /// incremental: each call returns only events since the previous drain.
  TraceSnapshot Drain();

 private:
  /// Per-lane sampling counter, padded so adjacent shard workers don't
  /// false-share.
  struct alignas(64) SampleCounter {
    std::uint64_t count = 0;
  };

  TracerOptions options_;
  std::atomic<bool> enabled_;
  std::vector<std::unique_ptr<TraceRing>> shard_rings_;
  std::vector<SampleCounter> sample_counters_;
  /// SPSC ring with two lock domains — producers serialise under
  /// control_mutex_, the drain side under drain_mutex_ — so no single
  /// capability guards it; deliberately unannotated (like shard_rings_,
  /// whose producer side is lock-free single-writer).
  TraceRing control_ring_;
  Mutex control_mutex_;  ///< serialises control-lane producers
  Mutex drain_mutex_;    ///< serialises drains (rings are SPSC)
};

}  // namespace omg::obs
