// Lock-free fixed-capacity SPSC trace ring with overwrite-oldest semantics.
//
// One ring per trace lane: exactly one producer (the shard worker) pushes
// encoded TraceEvents; a drainer copies them out on demand. The design goal
// is a push path with no locks, no allocation, and no waiting — tracing a
// batch must never stall scoring — so when the ring is full the producer
// overwrites the oldest slot and the drainer counts the lost event as
// *evicted* instead of the producer blocking.
//
// Each slot is a miniature seqlock: an atomic version word plus the event's
// payload words as relaxed atomics. The producer marks the slot busy
// (version = 2*seq+1), writes the payload, then publishes (version =
// 2*seq+2); the drainer reads the version, copies the payload, and
// re-validates the version — a mismatch means the producer lapped it
// mid-copy and the slot is counted evicted. Payload words are atomics, so
// the concurrent overwrite is a race only in the benign, counted sense —
// TSan-clean by construction.
//
// Concurrency contract: one producer thread, and at most one drainer at a
// time (the Tracer serialises drains). Producer and drainer may run
// concurrently.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace_event.hpp"

namespace omg::obs {

/// See the file comment. Capacity is rounded up to a power of two (min 2).
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Events ever pushed (monotonic; drained + evicted + pending == recorded).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Records `event`, overwriting the oldest slot when full. Producer
  /// thread only. Never blocks, never allocates.
  void Push(const TraceEvent& event);

  /// Outcome of one Drain call.
  struct DrainStats {
    /// Events appended to `out` by this call.
    std::size_t drained = 0;
    /// Events lost since the previous drain (overwritten before reading).
    std::size_t evicted = 0;
    /// Total events ever pushed, as of this drain.
    std::uint64_t recorded = 0;
  };

  /// Copies every event pushed since the last drain (oldest first) into
  /// `out`, skipping and counting evicted ones. At most one drainer at a
  /// time; safe against a concurrently pushing producer.
  DrainStats Drain(std::vector<TraceEvent>& out);

 private:
  /// One seqlock slot. version == 2*seq+1: producer writing event `seq`;
  /// version == 2*seq+2: event `seq` complete; 0: never written.
  struct Slot {
    std::atomic<std::uint64_t> version{0};
    std::array<std::atomic<std::uint64_t>, TraceEvent::kWords> words{};
  };

  std::vector<Slot> slots_;
  std::size_t mask_;
  /// Producer-owned push count (== head_ between pushes).
  std::uint64_t next_seq_ = 0;
  /// Published push count: events [0, head_) are complete.
  std::atomic<std::uint64_t> head_{0};
  /// Drain cursor: events [0, cursor_) were drained or counted evicted.
  std::atomic<std::uint64_t> cursor_{0};
};

}  // namespace omg::obs
