// Erasing core::Assertion<Example> suites for the AnyExample runtime.
//
// An erased stream is two things: the qualified names of its assertions
// and a factory for a TypedStreamScorer<T>. The scorer moves each batch's
// payloads out of their AnyExample holders into a typed
// IncrementalWindowEvaluator<T>, so the typed suite scores typed spans
// with the same radii, window and settle lag as when served directly.
// Assertion names are qualified as "<domain>/<name>" at erasure time, so
// runtime events, metric keys, and FlagCollectorSink columns can never
// collide across domains.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/assertion.hpp"
#include "core/incremental.hpp"
#include "runtime/suite_bundle.hpp"
#include "serve/any_example.hpp"

namespace omg::serve {

/// An erased per-stream bundle: what serve::Monitor registers a stream
/// from.
struct AnySuiteBundle {
  /// Qualified event name ("<domain>/<name>") of each assertion, indexed
  /// like the scorer's emitted assertion indices.
  std::vector<std::string> names;
  /// Builds the stream's scorer for the runtime's window geometry.
  runtime::StreamScorerFactory<AnyExample> scorer;
};

/// Builds one stream's AnySuiteBundle; called once per RegisterStream.
using AnySuiteFactory = std::function<AnySuiteBundle()>;

/// "<domain>/<name>" — the qualified event name of an erased assertion.
inline std::string QualifiedName(std::string_view domain,
                                 std::string_view name) {
  std::string qualified;
  qualified.reserve(domain.size() + 1 + name.size());
  qualified.append(domain);
  qualified.push_back('/');
  qualified.append(name);
  return qualified;
}

/// The domain tag of a qualified assertion name (empty when unqualified).
inline std::string_view DomainOfQualifiedName(std::string_view qualified) {
  const std::size_t slash = qualified.find('/');
  return slash == std::string_view::npos ? std::string_view{}
                                         : qualified.substr(0, slash);
}

/// The bare assertion name behind a qualified one (identity when
/// unqualified).
inline std::string_view UnqualifiedName(std::string_view qualified) {
  const std::size_t slash = qualified.find('/');
  return slash == std::string_view::npos ? qualified
                                         : qualified.substr(slash + 1);
}

/// Scores an AnyExample stream on a *typed* window: each batch's payloads
/// are moved straight out of their holders into an
/// IncrementalWindowEvaluator<T>, and the typed suite scores typed spans
/// directly. A payload of another type throws CheckError, which poisons
/// the batch, not the service.
template <typename T>
class TypedStreamScorer final : public runtime::StreamScorer<AnyExample> {
 public:
  TypedStreamScorer(std::string_view domain,
                    std::shared_ptr<core::AssertionSuite<T>> suite,
                    std::function<void()> invalidate,
                    const runtime::StreamScorerParams& params)
      : domain_(domain),
        suite_(std::move(suite)),
        evaluator_(*suite_, {params.window, params.settle_lag,
                             std::move(invalidate)}) {}

  void ObserveBatch(std::vector<AnyExample> batch,
                    const runtime::StreamScorer<AnyExample>::EmitFn& emit)
      override {
    AnyExample* data = batch.data();
    auto source = [this, data](std::size_t k) -> T&& {
      T* typed = data[k].TryGetMutable<T>();
      if (typed == nullptr) {
        throw common::CheckError(
            "stream scorer for domain '" + domain_ + "' fed a '" +
            std::string(data[k].domain()) +
            "' example: " + data[k].DebugString());
      }
      return std::move(*typed);
    };
    evaluator_.ObserveBatchFrom(batch.size(), source, emit);
  }

 private:
  std::string domain_;
  std::shared_ptr<core::AssertionSuite<T>> suite_;
  core::IncrementalWindowEvaluator<T> evaluator_;
};

/// Erases a typed per-stream bundle: the suite's names qualified under
/// `domain`, plus a TypedStreamScorer factory over the suite and its
/// invalidation hook.
template <typename T>
AnySuiteBundle EraseSuiteBundle(std::string_view domain,
                                runtime::SuiteBundle<T> bundle) {
  common::Check(!domain.empty(), "EraseSuiteBundle: empty domain");
  common::Check(bundle.suite != nullptr, "EraseSuiteBundle: null suite");
  AnySuiteBundle out;
  for (const std::string& name : bundle.suite->Names()) {
    out.names.push_back(QualifiedName(domain, name));
  }
  out.scorer = [domain = std::string(domain), bundle = std::move(bundle)](
                   const runtime::StreamScorerParams& params) {
    return std::make_unique<TypedStreamScorer<T>>(domain, bundle.suite,
                                                  bundle.invalidate, params);
  };
  return out;
}

/// Erases a typed suite factory: each RegisterStream gets a freshly built
/// typed bundle, erased under `domain`.
template <typename T>
AnySuiteFactory EraseSuiteFactory(std::string domain,
                                  runtime::SuiteFactory<T> factory) {
  common::Check(static_cast<bool>(factory),
                "EraseSuiteFactory: null typed factory");
  return [domain = std::move(domain), factory = std::move(factory)] {
    return EraseSuiteBundle<T>(domain, factory());
  };
}

}  // namespace omg::serve
