#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <unordered_map>
#include <utility>

namespace wirebench {

SpanRecorder::SpanRecorder(std::size_t capacity) : spans_(capacity) {}

void SpanRecorder::Record(const Span& span) {
  if (spans_.empty()) return;
  const std::size_t slot = used_.fetch_add(1, std::memory_order_relaxed);
  if (slot < spans_.size()) spans_[slot] = span;
}

std::vector<Span> SpanRecorder::Spans() const {
  const std::size_t used =
      std::min(used_.load(std::memory_order_acquire), spans_.size());
  return {spans_.begin(), spans_.begin() + static_cast<std::ptrdiff_t>(used)};
}

std::uint64_t SpanRecorder::dropped() const {
  const std::size_t used = used_.load(std::memory_order_acquire);
  return used > spans_.size() ? used - spans_.size() : 0;
}

std::map<std::string, LayerTime> SpanRecorder::Layers() const {
  return LayerTimes(Spans());
}

std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans) {
  // Child intervals per parent, clipped to the parent when merged below.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (const Span& span : spans) {
    const double duration =
        static_cast<double>(std::max<std::int64_t>(0, span.end_ns -
                                                          span.start_ns));
    double covered = 0.0;
    if (const auto it = children.find(span.id); it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cursor = span.start_ns;
      for (auto [begin, end] : intervals) {
        begin = std::max(begin, cursor);
        end = std::min(end, span.end_ns);
        if (end > begin) {
          covered += static_cast<double>(end - begin);
          cursor = end;
        }
      }
    }
    LayerTime& layer = layers[span.name];
    ++layer.count;
    layer.total_ns += duration;
    layer.self_ns += duration - covered;
  }
  return layers;
}

void SpanRecorder::WriteChromeTrace(std::ostream& out) const {
  const std::vector<Span> spans = Spans();
  std::int64_t origin = 0;
  if (!spans.empty()) {
    origin = std::min_element(spans.begin(), spans.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buffer[512];
  bool first = true;
  for (const Span& span : spans) {
    std::snprintf(
        buffer, sizeof(buffer),
        "%s\n{\"name\":\"%s\",\"cat\":\"wirebench\",\"ph\":\"X\","
        "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{"
        "\"span\":%llu,\"parent\":%llu,\"frame\":%llu}}",
        first ? "" : ",", span.name,
        static_cast<double>(span.start_ns - origin) / 1e3,
        static_cast<double>(std::max<std::int64_t>(0, span.end_ns -
                                                          span.start_ns)) /
            1e3,
        span.lane, static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.frame));
    out << buffer;
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace wirebench
