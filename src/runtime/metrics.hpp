// Aggregated serving metrics: the dashboard feed of §2.3.
//
// Workers report per-batch deltas (examples ingested, events emitted); the
// registry folds them into per-stream / per-assertion aggregates and renders
// point-in-time snapshots. Updates are batched — one registry call per
// ingested batch, not per event — so mutexes stay off the per-example hot
// path.
//
// The registry is internally sharded: construct it with a shard count and
// each shard gets its own cell (mutex + its streams' aggregates + a
// ShardMetrics block with the queue-depth/drop counters and observe-to-flag
// latency histogram of the serving shard it mirrors). Stream id `i` lives in
// cell `i % shards` — the same partition the ShardedMonitorService uses — so
// recording from distinct serving shards never contends on a shared lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/latency_histogram.hpp"

namespace omg::runtime {

/// Aggregate over one (stream, assertion) or (all streams, assertion) cell.
struct AssertionMetrics {
  /// Number of events this assertion emitted.
  std::size_t fires = 0;
  /// Largest severity among those events.
  double max_severity = 0.0;
  /// Sum of severities (for MeanSeverity).
  double sum_severity = 0.0;

  /// Mean severity across fires (0 when the assertion never fired).
  double MeanSeverity() const {
    return fires > 0 ? sum_severity / static_cast<double>(fires) : 0.0;
  }
};

/// One stream's aggregates.
struct StreamMetrics {
  /// Registry-assigned stream id.
  StreamId stream_id = 0;
  /// Stream name (empty for ids never registered).
  std::string stream;
  /// Examples scored on this stream.
  std::size_t examples_seen = 0;
  /// Events emitted on this stream.
  std::size_t events = 0;
  /// Per-assertion aggregates, keyed by assertion name.
  std::map<std::string, AssertionMetrics> assertions;

  /// Flags per observed example for one assertion on this stream (0 when
  /// the assertion never fired or nothing was observed). The improvement
  /// loop reads its progress off this number.
  double FlaggedRate(const std::string& assertion) const;
};

/// One serving shard's counters: the capacity/latency envelope of that
/// shard's bounded ingestion queue and worker.
struct ShardMetrics {
  /// Shard index (== worker index).
  std::size_t shard = 0;
  /// Batches scored by this shard's worker.
  std::size_t batches = 0;
  /// Examples scored (sums over batches).
  std::size_t examples = 0;
  /// Events emitted by this shard's streams.
  std::size_t events = 0;
  /// Batches / examples dropped from the queue head under kDropOldest (and
  /// below-floor queue evictions under kShedBelowSeverity).
  std::size_t dropped_batches = 0;
  std::size_t dropped_examples = 0;
  /// Incoming batches / examples shed at admission under
  /// kShedBelowSeverity (hint below the floor while the queue was full).
  std::size_t shed_batches = 0;
  std::size_t shed_examples = 0;
  /// Batches / examples whose scoring threw (the batch is poisoned, not
  /// the service; messages surface via the service's Errors()).
  std::size_t errored_batches = 0;
  std::size_t errored_examples = 0;
  /// Batches / examples stolen *from* this shard's queue by an idle
  /// neighbour's worker (victim-side counters; the stolen work's scoring
  /// time lands in the thief shard's `steal_ns`).
  std::size_t stolen_batches = 0;
  std::size_t stolen_examples = 0;
  /// Examples queued right now (gauge; snapshot-time value).
  std::size_t queue_depth = 0;
  /// Largest queue depth ever observed — the bounded-memory witness.
  std::size_t queue_depth_peak = 0;
  /// Observe-to-flag latency: ObserveBatch admission to events delivered to
  /// the sinks, one sample per scored batch.
  LatencyHistogram latency;

  // Occupancy accounting (obs::Clock nanoseconds). busy + idle + steal
  // partitions the worker's dequeue-to-dequeue wall time — every segment
  // lands in exactly one bucket — so BusyFraction is the shard's
  // utilisation; queue_wait separates "slow because saturated" (high busy,
  // high wait) from "slow because starved" (low busy — too many shards for
  // the offered load, the 8-shard knee's signature).
  /// Worker time spent scoring its own shard's batches (includes batches
  /// that threw).
  std::uint64_t busy_ns = 0;
  /// Worker time spent waiting for the queue to go non-empty.
  std::uint64_t idle_ns = 0;
  /// Worker time spent scoring batches stolen from other shards
  /// (thief-side; the victim's `stolen_batches` counts the same work).
  std::uint64_t steal_ns = 0;
  /// Enqueue-to-dequeue wait, summed over dequeued batches.
  std::uint64_t queue_wait_ns = 0;

  /// (busy + steal) / (busy + idle + steal); 0 before the worker measured
  /// anything.
  double BusyFraction() const;
  /// Mean enqueue-to-dequeue wait per dequeued batch, seconds.
  double MeanQueueWaitSeconds() const;
  /// Mean scoring time per dequeued batch, seconds.
  double MeanServiceSeconds() const;
};

/// Point-in-time aggregate across the whole service.
struct MetricsSnapshot {
  /// Examples scored across all streams.
  std::size_t examples_seen = 0;
  /// Events emitted across all streams.
  std::size_t events = 0;
  /// Per-stream aggregates, dense in id order (gaps are default entries).
  std::vector<StreamMetrics> streams;
  /// Per-assertion aggregates across all streams.
  std::map<std::string, AssertionMetrics> assertions;
  /// Per-serving-shard counters, in shard order.
  std::vector<ShardMetrics> shards;
  /// Free-form named counters recorded via RecordNamed. The net layer folds
  /// per-tenant wire accounting here under "tenant/<id>/<outcome>" keys;
  /// anything off the per-example hot path may add its own.
  std::map<std::string, std::uint64_t> named;

  /// Service-wide flags per observed example for one assertion.
  double FlaggedRate(const std::string& assertion) const;

  /// Sums over `shards`.
  std::size_t TotalDroppedExamples() const;
  std::size_t TotalShedExamples() const;
  std::size_t TotalErroredExamples() const;

  /// All shards' latency histograms merged.
  LatencyHistogram MergedLatency() const;
};

/// Thread-safe metrics accumulator shared by all shards.
class MetricsRegistry {
 public:
  /// `shards` cells: stream id i is recorded under cell i % shards, and
  /// Snapshot().shards carries one ShardMetrics per shard.
  explicit MetricsRegistry(std::size_t shards);

  /// Allocates the slot for `id` (idempotent per id, names must agree).
  void RegisterStream(StreamId id, std::string_view name);

  /// Folds one scored batch into stream `id`'s aggregates and shard
  /// `shard`'s counters: stream `id` lives in shard `shard`'s cell (the
  /// service pins id % shards == shard), so one lock acquisition updates
  /// both — the per-scored-batch fast path of the sharded service. The
  /// batch's observe-to-flag latency becomes one histogram sample; the
  /// trailing nanosecond arguments fold its occupancy deltas (queue wait,
  /// scoring time, worker idle before the dequeue) into the same lock.
  void RecordScoredBatch(StreamId id, std::size_t shard, std::size_t examples,
                         std::span<const StreamEvent> events,
                         double latency_seconds,
                         std::uint64_t queue_wait_ns = 0,
                         std::uint64_t busy_ns = 0, std::uint64_t idle_ns = 0);

  /// Counts a batch whose scoring threw. A poisoned batch still consumed
  /// the worker, so it carries occupancy deltas too.
  void RecordError(std::size_t shard, std::size_t batches,
                   std::size_t examples, std::uint64_t queue_wait_ns = 0,
                   std::uint64_t busy_ns = 0, std::uint64_t idle_ns = 0);

  /// What kind of loss a RecordLoss call reports.
  enum class LossKind {
    kDropped,  ///< removed from the queue (kDropOldest / floor eviction)
    kShed,     ///< refused at admission (kShedBelowSeverity)
  };

  /// Counts `batches`/`examples` lost on shard `shard`.
  void RecordLoss(std::size_t shard, std::size_t batches, std::size_t examples,
                  LossKind kind);

  /// Counts work taken *from* `victim_shard`'s queue by another worker
  /// (victim-side `stolen_batches`/`stolen_examples`).
  void RecordSteal(std::size_t victim_shard, std::size_t batches,
                   std::size_t examples);

  /// Folds a thief worker's occupancy into *its own* shard's counters:
  /// `steal_ns` of foreign-batch scoring plus the `idle_ns` the worker
  /// accumulated before the steal. The scored batch's stream/latency
  /// aggregates go to the victim cell via RecordScoredBatch with zero
  /// busy/idle, keeping the two cells' time disjoint.
  void RecordStealWork(std::size_t thief_shard, std::uint64_t steal_ns,
                       std::uint64_t idle_ns);

  /// Updates shard `shard`'s queue-depth gauge and peak.
  void RecordQueueDepth(std::size_t shard, std::size_t depth);

  /// Adds `delta` to the free-form counter `key` (creating it at zero).
  /// Guarded by its own lock, off the scoring fast path — meant for
  /// per-batch-or-rarer accounting such as the net layer's per-tenant
  /// counters, not per-example updates.
  void RecordNamed(const std::string& key, std::uint64_t delta);

  /// Point-in-time copy of every aggregate.
  MetricsSnapshot Snapshot() const;

 private:
  /// One lock domain: the streams of one serving shard plus its counters.
  struct Cell {
    mutable Mutex mutex;
    std::map<StreamId, StreamMetrics> streams OMG_GUARDED_BY(mutex);
    ShardMetrics shard OMG_GUARDED_BY(mutex);
  };

  Cell& CellOf(StreamId id);
  Cell& ShardCell(std::size_t shard);

  std::vector<std::unique_ptr<Cell>> cells_;

  mutable Mutex named_mutex_;
  std::map<std::string, std::uint64_t> named_ OMG_GUARDED_BY(named_mutex_);
};

}  // namespace omg::runtime
