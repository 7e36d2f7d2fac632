// The per-stream suite handle of the serving runtime.
//
// Suites are stateful (consistency assertions memoise analyses), so every
// registered stream gets its own instance from a factory; the bundle pairs
// the suite with the invalidation hook its unbounded assertions need.
// ShardedMonitorService aliases these types, and serve::EraseSuiteFactory
// turns a typed factory into the facade's erased one.
//
// A bundle may additionally carry a StreamScorer factory: the scorer owns
// the stream's window evaluation, and a custom one can evaluate in a
// different representation than the service's Example type. The serving
// facade uses this to run type-erased streams on *typed* evaluators — the
// holder's payload is moved straight into a typed window and every
// assertion scores typed spans, so erasure stays off the per-pass scoring
// path. Without a factory the service builds the default scorer, which
// drives an IncrementalWindowEvaluator<Example> over `suite` exactly as the
// services always did.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/assertion.hpp"
#include "core/incremental.hpp"

namespace omg::runtime {

/// Window geometry handed to a StreamScorer factory (the slice of
/// ShardedRuntimeConfig a per-stream evaluator needs).
struct StreamScorerParams {
  std::size_t window = 64;
  std::size_t settle_lag = 8;
};

/// One stream's window-evaluation engine: consumes batches, emits
/// `(global_index, assertion_index, severity)` firings in stream order.
///
/// Not thread-safe: the service guarantees at most one worker drives a
/// given scorer at a time (with work stealing the worker may change between
/// batches, but never concurrently — the claimed-stream protocol in
/// ShardedMonitorService serialises access).
template <typename Example>
class StreamScorer {
 public:
  /// Firing callback; assertion_index refers to the bundle suite's order.
  using EmitFn = std::function<void(std::size_t global, std::size_t assertion,
                                    double severity)>;

  virtual ~StreamScorer() = default;

  /// Scores one batch (consumed), emitting settled verdicts via `emit`.
  /// May throw; the service poisons the batch and keeps serving.
  virtual void ObserveBatch(std::vector<Example> batch, const EmitFn& emit) = 0;
};

/// The stock scorer: an IncrementalWindowEvaluator<Example> over the
/// bundle's own suite (what every stream ran before scorers existed).
template <typename Example>
class DefaultStreamScorer final : public StreamScorer<Example> {
 public:
  DefaultStreamScorer(std::shared_ptr<core::AssertionSuite<Example>> suite,
                      std::function<void()> invalidate,
                      const StreamScorerParams& params)
      : suite_(std::move(suite)),
        evaluator_(*suite_, {params.window, params.settle_lag,
                             std::move(invalidate)}) {}

  void ObserveBatch(std::vector<Example> batch,
                    const typename StreamScorer<Example>::EmitFn& emit)
      override {
    evaluator_.ObserveBatch(std::move(batch), emit);
  }

 private:
  std::shared_ptr<core::AssertionSuite<Example>> suite_;
  core::IncrementalWindowEvaluator<Example> evaluator_;
};

/// One stream's private suite plus an optional invalidation hook, invoked
/// before unbounded assertions re-evaluate the window (wire the
/// consistency analyzer's Invalidate here — see IncrementalWindowEvaluator).
template <typename Example>
struct SuiteBundle {
  /// The stream's private assertion suite (must be non-null). Even when a
  /// custom scorer evaluates elsewhere, this suite remains the source of
  /// assertion names and order for the stream's events.
  std::shared_ptr<core::AssertionSuite<Example>> suite;
  /// Optional hook run before unbounded assertions re-score the window
  /// (consumed by the default scorer; custom scorers wire their own).
  std::function<void()> invalidate;
  /// Optional scorer factory; null means the default scorer over `suite`.
  /// Emitted assertion indices must follow `suite`'s order.
  std::function<std::unique_ptr<StreamScorer<Example>>(
      const StreamScorerParams&)>
      scorer;
};

/// Builds one stream's SuiteBundle; called once per RegisterStream.
template <typename Example>
using SuiteFactory = std::function<SuiteBundle<Example>()>;

}  // namespace omg::runtime
