// Pieces both workload runners share: the recording flag sink, the
// reference evaluator pass the served flags are checked against, and the
// standalone scoring and serving passes the traced run times.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "av/factory.hpp"
#include "bench.hpp"
#include "common/check.hpp"
#include "config/scenario.hpp"
#include "core/incremental.hpp"
#include "ecg/factory.hpp"
#include "helpers.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/metrics.hpp"
#include "serve/domain_registry.hpp"
#include "serve/monitor.hpp"
#include "video/factory.hpp"

namespace wirebench {

inline void RegisterAssertions(
    omg::config::AssertionFactory<omg::video::VideoExample>& f) {
  omg::video::RegisterVideoAssertions(f);
}
inline void RegisterAssertions(
    omg::config::AssertionFactory<omg::av::AvExample>& f) {
  omg::av::RegisterAvAssertions(f);
}
inline void RegisterAssertions(
    omg::config::AssertionFactory<omg::ecg::EcgExample>& f) {
  omg::ecg::RegisterEcgAssertions(f);
}

/// The typed suite `suite` describes, as the monitor's domain builds it.
template <typename T>
omg::runtime::SuiteBundle<T> BuildTypedSuite(
    const omg::config::SuiteSpec& suite) {
  omg::config::AssertionFactory<T> factory;
  RegisterAssertions(factory);
  return omg::config::BuildSuiteBundle(factory, suite);
}

/// Event names of `suite`'s columns as the monitor qualifies them.
template <typename T>
std::vector<std::string> QualifiedNames(const omg::config::SuiteSpec& suite) {
  const omg::runtime::SuiteBundle<T> bundle = BuildTypedSuite<T>(suite);
  std::vector<std::string> names;
  for (std::size_t a = 0; a < bundle.suite->size(); ++a) {
    names.push_back(suite.domain + "/" + bundle.suite->at(a).name());
  }
  return names;
}

/// Records every flag into per-stream storage reserved (and touched)
/// before the run, stamping the time the sink saw it. Events of one stream
/// never arrive concurrently (runtime/event_sink.hpp), so each stream's
/// lane is appended without a lock; a full lane counts an overflow instead
/// of growing inside a shard worker.
class FlagSink final : public omg::runtime::EventSink {
 public:
  struct Record {
    std::uint64_t example = 0;
    std::uint32_t assertion = 0;
    double severity = 0.0;
    std::int64_t consume_ns = 0;
  };

  FlagSink(const std::vector<std::size_t>& capacities,
           std::vector<std::string> assertion_names)
      : names_(std::move(assertion_names)), lanes_(capacities.size()) {
    for (std::size_t s = 0; s < capacities.size(); ++s) {
      lanes_[s].records.resize(capacities[s]);
    }
  }

  /// Maps monitor stream ids to workload stream positions and empties
  /// every lane; call before traffic flows.
  void BindStreams(const std::vector<omg::runtime::StreamId>& ids) {
    lane_of_id_.assign(*std::max_element(ids.begin(), ids.end()) + 1,
                       kNoLane);
    for (std::size_t s = 0; s < ids.size(); ++s) lane_of_id_[ids[s]] = s;
    for (Lane& lane : lanes_) lane.size = 0;
  }

  void Consume(const omg::runtime::StreamEvent& event) override {
    const std::int64_t now = NowNs();
    const std::size_t lane_index = event.stream_id < lane_of_id_.size()
                                       ? lane_of_id_[event.stream_id]
                                       : kNoLane;
    std::uint32_t assertion = 0;
    while (assertion < names_.size() && names_[assertion] != event.assertion) {
      ++assertion;
    }
    if (lane_index == kNoLane || assertion == names_.size()) {
      unknown_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Lane& lane = lanes_[lane_index];
    if (lane.size == lane.records.size()) {
      overflow_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    lane.records[lane.size++] = {event.example_index, assertion,
                                 event.severity, now};
  }

  std::size_t size(std::size_t stream) const { return lanes_[stream].size; }
  const Record& at(std::size_t stream, std::size_t i) const {
    return lanes_[stream].records[i];
  }
  std::uint64_t overflow() const { return overflow_.load(); }
  std::uint64_t unknown() const { return unknown_.load(); }

  /// Every recorded flag in canonical form.
  std::vector<FlagRecord> Flags() const {
    std::vector<FlagRecord> flags;
    for (std::size_t s = 0; s < lanes_.size(); ++s) {
      for (std::size_t i = 0; i < lanes_[s].size; ++i) {
        const Record& r = lanes_[s].records[i];
        flags.push_back({static_cast<std::uint32_t>(s), r.assertion,
                         r.example, r.severity});
      }
    }
    return flags;
  }

 private:
  static constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);
  struct Lane {
    std::vector<Record> records;
    std::size_t size = 0;
  };
  std::vector<std::string> names_;
  std::vector<Lane> lanes_;
  std::vector<std::size_t> lane_of_id_;
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> unknown_{0};
};

/// The reference evaluation of one stream: the typed suite the monitor's
/// domain builds, run by one IncrementalWindowEvaluator over `frames`
/// batches of `frame_examples` taken from `pool` in order (wrapping at its
/// end), batch by batch as they were served. `score_ns`, when given,
/// receives the time spent inside the evaluator.
template <typename T>
std::vector<FlagRecord> ReferencePass(const omg::config::SuiteSpec& suite,
                                      std::size_t window,
                                      std::size_t settle_lag,
                                      const std::vector<T>& pool,
                                      std::size_t frame_examples,
                                      std::size_t frames,
                                      std::uint32_t stream,
                                      std::int64_t* score_ns = nullptr) {
  omg::runtime::SuiteBundle<T> bundle = BuildTypedSuite<T>(suite);
  omg::core::IncrementalWindowEvaluator<T> evaluator(
      *bundle.suite, {window, settle_lag, bundle.invalidate});
  std::vector<FlagRecord> flags;
  const std::size_t pool_frames = pool.size() / frame_examples;
  std::vector<T> batch;
  std::int64_t elapsed = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    const auto begin =
        pool.begin() +
        static_cast<std::ptrdiff_t>((f % pool_frames) * frame_examples);
    batch.assign(begin, begin + static_cast<std::ptrdiff_t>(frame_examples));
    const std::int64_t t0 = NowNs();
    evaluator.ObserveBatch(
        std::move(batch),
        [&](std::size_t global, std::size_t a, double severity) {
          flags.push_back(
              {stream, static_cast<std::uint32_t>(a), global, severity});
        });
    elapsed += NowNs() - t0;
  }
  if (score_ns != nullptr) *score_ns = elapsed;
  return flags;
}

/// Runs `task(i)` for i in [0, count) on up to `threads` threads.
inline void ParallelFor(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t)>& task) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < std::min(threads, count); ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) task(i);
    });
  }
  for (std::thread& worker : workers) worker.join();
}

/// Per-layer metrics by name, as RunResult::per_layer holds them.
using Layers = std::map<std::string, Metric>;

/// Times scoring standalone, single-threaded, over `pools[stream]` served
/// batch by batch: the whole suite, then each of its factory assertions
/// alone. Writes core.score_ns_per_ex, core.events_per_ex and
/// core.<assertion>_ns_per_ex; returns the suite's ns per example.
template <typename T>
double ScoreLayers(const omg::config::SuiteSpec& suite, std::size_t window,
                   std::size_t settle_lag,
                   const std::vector<std::vector<T>>& pools,
                   std::size_t frame_examples, SpanRecorder& spans,
                   Layers& layer) {
  double examples = 0.0;
  for (const std::vector<T>& pool : pools) {
    examples += static_cast<double>(pool.size() / frame_examples *
                                    frame_examples);
  }
  std::size_t events = 0;
  const auto ns_per_example = [&](const omg::config::SuiteSpec& scored) {
    std::int64_t total = 0;
    for (std::size_t s = 0; s < pools.size(); ++s) {
      std::int64_t ns = 0;
      events += ReferencePass(scored, window, settle_lag, pools[s],
                              frame_examples,
                              pools[s].size() / frame_examples,
                              static_cast<std::uint32_t>(s), &ns)
                    .size();
      total += ns;
    }
    return static_cast<double>(total) / examples;
  };
  const std::int64_t begin = NowNs();
  const double score = ns_per_example(suite);
  spans.Record({"core.score", spans.NextId(), 0, 0, begin, NowNs(), 2});
  layer["core.score_ns_per_ex"] = {score, "ns"};
  layer["core.events_per_ex"] = {static_cast<double>(events) / examples,
                                 "count"};
  for (const omg::config::AssertionSpec& assertion : suite.assertions) {
    layer["core." + assertion.name + "_ns_per_ex"] = {
        ns_per_example({suite.domain, {assertion}}), "ns"};
  }
  return score;
}

/// A 1-shard in-process Monitor doing ObserveBatch + Flush over
/// `batches[stream][frame]` (consumed), frames round-robin over streams.
/// Writes serve.overhead_ns_per_ex (the pass per example minus
/// `score_ns_per_ex`), serve.observe_call_us and serve.flush_ms.
void ServeLayers(
    const omg::serve::DomainRegistry& domains,
    const omg::config::SuiteSpec& suite, std::size_t window,
    std::size_t settle_lag,
    std::vector<std::vector<std::vector<omg::serve::AnyExample>>> batches,
    double score_ns_per_ex, SpanRecorder& spans, Layers& layer);

/// The runtime.* layer metrics from a Monitor's metrics snapshot.
void RuntimeLayers(const omg::runtime::MetricsSnapshot& metrics,
                   Layers& layer);

}  // namespace wirebench
