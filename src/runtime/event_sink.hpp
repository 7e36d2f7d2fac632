// Pluggable event sinks for the assertion-serving runtime.
//
// The serving runtime fans every assertion firing out to `EventSink`
// objects — counting for alerting thresholds, JSON-lines for downstream
// ingestion (dashboards, weak-supervision pipelines), collecting for tests
// and small replays. One sink set serves every registered stream, so events
// carry the stream identity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"

namespace omg::runtime {

/// Identifier assigned by the StreamRegistry at registration.
using StreamId = std::uint64_t;

/// One assertion firing on one stream.
///
/// The string_views point at storage owned by the service (stream names by
/// its registry, assertion names by the stream's suite) and stay valid for
/// the service's lifetime; sinks that outlive the service must copy.
struct StreamEvent {
  StreamId stream_id = 0;
  std::string_view stream;     ///< stream name
  std::size_t example_index = 0;  ///< per-stream position
  std::string_view assertion;
  double severity = 0.0;
};

/// Consumer of runtime events.
///
/// `Consume` may be called concurrently from different shard workers (events
/// of one stream arrive in stream order, never concurrently — with work
/// stealing the delivering worker may change between batches, but the
/// claimed-stream protocol serialises it; distinct streams may interleave
/// from distinct threads) — implementations must be thread-safe.
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// Handles one assertion firing; must be thread-safe (see class comment).
  virtual void Consume(const StreamEvent& event) = 0;
  /// Called by the service's Flush after the queues drain.
  virtual void Flush() {}
};

/// Counts events and tracks the maximum severity seen (atomic dashboard
/// primitives for alerting).
class CountingSink final : public EventSink {
 public:
  void Consume(const StreamEvent& event) override;

  /// Total events consumed.
  std::size_t count() const;
  /// Largest severity seen (0 before the first event).
  double max_severity() const;

  /// Event counts broken down by assertion name. Divide by the observed
  /// example count (MetricsSnapshot::examples_seen) for per-assertion
  /// flagged rates when no registry is attached.
  std::map<std::string, std::size_t, std::less<>> counts_by_assertion() const;

 private:
  mutable Mutex mutex_;
  std::size_t count_ OMG_GUARDED_BY(mutex_) = 0;
  double max_severity_ OMG_GUARDED_BY(mutex_) = 0.0;
  /// Transparent comparator: Consume looks names up by string_view without
  /// materialising a std::string per event on the hot path.
  std::map<std::string, std::size_t, std::less<>> by_assertion_
      OMG_GUARDED_BY(mutex_);
};

/// Writes one JSON object per line per event:
///   {"stream":"cam-0","example":17,"assertion":"flicker","severity":1.0}
class JsonLinesSink final : public EventSink {
 public:
  /// Writes to `out`, which must outlive the sink.
  explicit JsonLinesSink(std::ostream& out);

  void Consume(const StreamEvent& event) override;
  void Flush() override;

 private:
  Mutex mutex_;
  std::ostream& out_;
};

/// Appends every event to an in-memory vector (tests, small replays).
class CollectingSink final : public EventSink {
 public:
  /// A copy of the events seen so far, with the name views materialised.
  struct OwnedEvent {
    StreamId stream_id = 0;
    std::string stream;
    std::size_t example_index = 0;
    std::string assertion;
    double severity = 0.0;
  };

  void Consume(const StreamEvent& event) override;
  /// The events seen so far, in arrival order.
  std::vector<OwnedEvent> Events() const;

 private:
  mutable Mutex mutex_;
  std::vector<OwnedEvent> events_ OMG_GUARDED_BY(mutex_);
};

/// Escapes `text` for inclusion in a JSON string literal (no quotes added).
std::string JsonEscape(std::string_view text);

}  // namespace omg::runtime
