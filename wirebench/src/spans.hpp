// In-memory span recording for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around its calls into the
// library (the monitor's built-in tracer stays off). Each span carries a
// name, start, end, its parent span, and the id of the frame it belongs to
// (every span of one frame shares it). Storage is preallocated and appends
// are lock-free, so shard workers and the load generator can record
// concurrently without allocating inside the measured run; spans beyond
// the capacity are counted, not stored.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace wirebench {

struct Span {
  const char* name = "";  ///< static string
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t frame = 0;   ///< shared by every span of one frame
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t lane = 0;  ///< Chrome-trace tid
};

/// Total and self time of every span with one name. Self time is a span's
/// duration minus the part of it its children cover.
struct LayerTime {
  std::size_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  double MeanSelfNs() const {
    return count > 0 ? self_ns / static_cast<double>(count) : 0.0;
  }
};

class SpanRecorder {
 public:
  /// Disabled recorders (capacity 0) ignore every Record call.
  explicit SpanRecorder(std::size_t capacity);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return !spans_.empty(); }

  /// Ids for spans whose id is not derived from a frame.
  std::uint64_t NextId() { return next_id_.fetch_add(1) + (1ULL << 62); }

  /// Stores one span; thread-safe.
  void Record(const Span& span);

  /// Spans recorded so far (call once writers are quiescent).
  std::vector<Span> Spans() const;
  /// Spans that did not fit.
  std::uint64_t dropped() const;

  /// Count, total and self time per span name.
  std::map<std::string, LayerTime> Layers() const;

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  void WriteChromeTrace(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::uint64_t> next_id_{1};
};

/// Self time per name over `spans`; exposed for the helper tests.
std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans);

}  // namespace wirebench
