#include "runtime/event_sink.hpp"

#include <array>
#include <cstdio>
#include <ostream>

namespace omg::runtime {

void CountingSink::Consume(const StreamEvent& event) {
  MutexLock lock(mutex_);
  ++count_;
  if (event.severity > max_severity_) max_severity_ = event.severity;
  const auto it = by_assertion_.find(event.assertion);
  if (it != by_assertion_.end()) {
    ++it->second;
  } else {
    by_assertion_.emplace(std::string(event.assertion), 1);
  }
}

std::map<std::string, std::size_t, std::less<>>
CountingSink::counts_by_assertion() const {
  MutexLock lock(mutex_);
  return by_assertion_;
}

std::size_t CountingSink::count() const {
  MutexLock lock(mutex_);
  return count_;
}

double CountingSink::max_severity() const {
  MutexLock lock(mutex_);
  return max_severity_;
}

JsonLinesSink::JsonLinesSink(std::ostream& out) : out_(out) {}

void JsonLinesSink::Consume(const StreamEvent& event) {
  // %.17g round-trips doubles; JSON has no infinities but severities are
  // checked finite at the assertion layer.
  std::array<char, 32> severity{};
  std::snprintf(severity.data(), severity.size(), "%.17g", event.severity);
  MutexLock lock(mutex_);
  out_ << "{\"stream\":\"" << JsonEscape(event.stream)
       << "\",\"example\":" << event.example_index << ",\"assertion\":\""
       << JsonEscape(event.assertion) << "\",\"severity\":" << severity.data()
       << "}\n";
}

void JsonLinesSink::Flush() {
  MutexLock lock(mutex_);
  out_.flush();
}

void CollectingSink::Consume(const StreamEvent& event) {
  MutexLock lock(mutex_);
  events_.push_back({event.stream_id, std::string(event.stream),
                     event.example_index, std::string(event.assertion),
                     event.severity});
}

std::vector<CollectingSink::OwnedEvent> CollectingSink::Events() const {
  MutexLock lock(mutex_);
  return events_;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf.data();
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace omg::runtime
