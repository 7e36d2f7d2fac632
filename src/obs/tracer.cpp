#include "obs/tracer.hpp"

#include <utility>

#include "common/check.hpp"
#include "obs/clock.hpp"

namespace omg::obs {

std::size_t TraceSnapshot::TotalEvents() const {
  std::size_t total = 0;
  for (const LaneTrace& lane : lanes) total += lane.events.size();
  return total;
}

Tracer::Tracer(TracerOptions options)
    : options_(options),
      enabled_(options.enabled),
      sample_counters_(options.shard_lanes),
      control_ring_(options.ring_capacity) {
  common::Check(options_.shard_lanes >= 1, "tracer needs at least one lane");
  common::Check(options_.sample_every >= 1,
                "trace sampling period must be at least 1");
  shard_rings_.reserve(options_.shard_lanes);
  for (std::size_t i = 0; i < options_.shard_lanes; ++i) {
    shard_rings_.push_back(std::make_unique<TraceRing>(options_.ring_capacity));
  }
}

bool Tracer::SampleBatch(std::size_t shard) {
  if (!enabled()) return false;
  common::CheckIndex(static_cast<std::ptrdiff_t>(shard), 0,
                     static_cast<std::ptrdiff_t>(sample_counters_.size()),
                     "tracer shard lane");
  return (sample_counters_[shard].count++ % options_.sample_every) == 0;
}

void Tracer::EmitShard(std::size_t shard, TraceEventKind kind,
                       TracePhase phase, std::uint64_t stream_id,
                       std::uint64_t arg0, std::uint64_t arg1) {
  if (!enabled()) return;
  common::CheckIndex(static_cast<std::ptrdiff_t>(shard), 0,
                     static_cast<std::ptrdiff_t>(shard_rings_.size()),
                     "tracer shard lane");
  shard_rings_[shard]->Push(
      {Clock::NowNs(), kind, phase, stream_id, arg0, arg1});
}

void Tracer::EmitControl(TraceEventKind kind, TracePhase phase,
                         std::uint64_t stream_id, std::uint64_t arg0,
                         std::uint64_t arg1) {
  if (!enabled()) return;
  MutexLock lock(control_mutex_);
  // Timestamp under the lock so control-lane events stay in timestamp
  // order (the ring is SPSC; the mutex makes "one producer" true).
  control_ring_.Push({Clock::NowNs(), kind, phase, stream_id, arg0, arg1});
}

TraceSnapshot Tracer::Drain() {
  MutexLock lock(drain_mutex_);
  TraceSnapshot snapshot;
  snapshot.lanes.reserve(shard_rings_.size() + 1);
  for (std::size_t i = 0; i < shard_rings_.size(); ++i) {
    LaneTrace lane;
    lane.name = "shard-" + std::to_string(i);
    const TraceRing::DrainStats stats = shard_rings_[i]->Drain(lane.events);
    lane.evicted = stats.evicted;
    lane.recorded = stats.recorded;
    snapshot.lanes.push_back(std::move(lane));
  }
  LaneTrace control;
  control.name = "control";
  const TraceRing::DrainStats stats = control_ring_.Drain(control.events);
  control.evicted = stats.evicted;
  control.recorded = stats.recorded;
  snapshot.lanes.push_back(std::move(control));
  return snapshot;
}

}  // namespace omg::obs
