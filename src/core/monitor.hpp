// Streaming runtime monitoring (§2.3: "model assertions can be used for
// monitoring and validating all parts of the ML deployment pipeline").
//
// The monitor adapts batch assertions to a live stream: it keeps a sliding
// window of recent examples and emits each (example, assertion) firing
// exactly once — when the example is `settle_lag` steps behind the stream
// head, so retroactive assertions (flicker needs the *next* frame to fire on
// the previous one) have settled. Callbacks can log, populate a dashboard,
// or trigger corrective action such as disengaging an autopilot.
//
// Scoring is delegated to core/incremental.hpp: assertions declaring a
// `temporal_radius` are re-scored only over the window suffix a new example
// can affect (pointwise assertions cost O(1) amortized per example);
// assertions without a declared radius — e.g. consistency-generated ones —
// re-score the whole window as the seed monitor did. For the multi-stream,
// multi-threaded serving runtime built on the same evaluator, see
// serve/monitor.hpp.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/assertion.hpp"
#include "core/incremental.hpp"

namespace omg::core {

/// One emitted firing.
struct MonitorEvent {
  std::size_t example_index = 0;  ///< global stream position
  std::string assertion;
  double severity = 0.0;
};

/// Aggregate monitoring statistics (dashboard feed).
struct MonitorStats {
  std::size_t examples_seen = 0;
  std::size_t events_emitted = 0;
  /// Per-assertion number of examples that fired.
  std::map<std::string, std::size_t> fire_counts;
  /// Per-assertion maximum severity seen.
  std::map<std::string, double> max_severity;
};

/// Sliding-window streaming monitor over an AssertionSuite.
template <typename Example>
class StreamingMonitor {
 public:
  using Callback = std::function<void(const MonitorEvent&)>;

  /// `window` is the number of recent examples assertions see; `settle_lag`
  /// is how far behind the head an example must be before its verdict is
  /// emitted (settle_lag < window). When the suite contains
  /// consistency-generated assertions, pass their analyzer's Invalidate as
  /// `before_window_eval`: the analyzer memoises on (data pointer, size)
  /// and the monitor's reused window buffer can alias that key across
  /// steps (the alternative, as in the seed, is calling Invalidate by hand
  /// before every Observe).
  StreamingMonitor(AssertionSuite<Example>& suite, std::size_t window,
                   std::size_t settle_lag,
                   std::function<void()> before_window_eval = {})
      : suite_(suite),
        evaluator_(suite,
                   {window, settle_lag, std::move(before_window_eval)}) {}

  /// Registers a callback invoked once per emitted event.
  void OnEvent(Callback callback) {
    callbacks_.push_back(std::move(callback));
  }

  /// Feeds one example and emits newly settled verdicts. Returns events
  /// emitted by this step.
  std::vector<MonitorEvent> Observe(Example example) {
    std::vector<MonitorEvent> emitted;
    evaluator_.Observe(std::move(example),
                       [&](std::size_t global, std::size_t a,
                           double severity) { Emit(global, a, severity,
                                                   emitted); });
    stats_.examples_seen = evaluator_.examples_seen();
    return emitted;
  }

  /// Feeds a batch of examples at once (amortizes suffix re-scoring for
  /// stream-level assertions). Returns events emitted by the batch.
  std::vector<MonitorEvent> ObserveBatch(std::vector<Example> batch) {
    std::vector<MonitorEvent> emitted;
    evaluator_.ObserveBatch(std::move(batch),
                            [&](std::size_t global, std::size_t a,
                                double severity) { Emit(global, a, severity,
                                                        emitted); });
    stats_.examples_seen = evaluator_.examples_seen();
    return emitted;
  }

  const MonitorStats& stats() const { return stats_; }

 private:
  void Emit(std::size_t global, std::size_t assertion_index, double severity,
            std::vector<MonitorEvent>& emitted) {
    const std::string& name = suite_.at(assertion_index).name();
    MonitorEvent event{global, name, severity};
    ++stats_.events_emitted;
    ++stats_.fire_counts[name];
    auto& max_severity = stats_.max_severity[name];
    if (severity > max_severity) max_severity = severity;
    for (const auto& callback : callbacks_) callback(event);
    emitted.push_back(std::move(event));
  }

  AssertionSuite<Example>& suite_;
  IncrementalWindowEvaluator<Example> evaluator_;
  std::vector<Callback> callbacks_;
  MonitorStats stats_;
};

}  // namespace omg::core
