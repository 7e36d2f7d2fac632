// The model-assertion abstraction (§2 of the paper).
//
// A model assertion is an arbitrary function over a model's inputs and
// outputs that returns a severity score per data point: 0 abstains, any
// positive value indicates a (possibly soft) error of a specific type.
//
// Assertions here consume the *whole ordered stream* of examples at once and
// return one severity per example. This batch form matches how the paper
// uses assertions (data is collected, then validated / selected in bulk) and
// lets temporal assertions such as `flicker` score an example retroactively
// once later frames arrive. `core/incremental.hpp` adapts the batch form to
// a sliding window, which `serve::Monitor` runs per stream for runtime
// monitoring.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/severity_matrix.hpp"

namespace omg::core {

/// Temporal radius meaning "the severity of example i may depend on the
/// entire stream" (e.g. consistency assertions tracking identifiers).
inline constexpr std::size_t kUnboundedRadius =
    static_cast<std::size_t>(-1);

/// Interface for a model assertion over examples of type `Example`.
///
/// An `Example` bundles one model invocation: the input and the model's
/// output(s), plus whatever bookkeeping the domain needs (timestamps etc.).
template <typename Example>
class Assertion {
 public:
  explicit Assertion(std::string name) : name_(std::move(name)) {
    common::Check(!name_.empty(), "assertion name must be non-empty");
  }
  virtual ~Assertion() = default;

  Assertion(const Assertion&) = delete;
  Assertion& operator=(const Assertion&) = delete;

  /// Stable name used in reports and the severity matrix.
  const std::string& name() const { return name_; }

  /// Returns one severity per example (same order); 0 abstains.
  virtual std::vector<double> CheckAll(
      std::span<const Example> examples) = 0;

  /// Temporal locality contract for incremental (streaming) evaluation: the
  /// severity of example i depends only on examples [i - r, i + r] of the
  /// stream, where r is the returned radius. Pointwise assertions have
  /// radius 0; the default, `kUnboundedRadius`, declares no locality and
  /// forces full-window re-evaluation in streaming contexts.
  virtual std::size_t temporal_radius() const { return kUnboundedRadius; }

 private:
  std::string name_;
};

/// Adapts a free function/lambda over the whole stream into an assertion.
template <typename Example>
class FunctionAssertion final : public Assertion<Example> {
 public:
  using Fn = std::function<std::vector<double>(std::span<const Example>)>;

  /// `temporal_radius` (optional) declares the locality contract of `fn`:
  /// severity of example i must depend only on examples [i - r, i + r].
  FunctionAssertion(std::string name, Fn fn,
                    std::size_t temporal_radius = kUnboundedRadius)
      : Assertion<Example>(std::move(name)),
        fn_(std::move(fn)),
        temporal_radius_(temporal_radius) {
    common::Check(static_cast<bool>(fn_), "assertion function must be set");
  }

  std::vector<double> CheckAll(std::span<const Example> examples) override {
    auto severities = fn_(examples);
    common::Check(severities.size() == examples.size(),
                  "assertion must return one severity per example");
    return severities;
  }

  std::size_t temporal_radius() const override { return temporal_radius_; }

 private:
  Fn fn_;
  std::size_t temporal_radius_;
};

/// Adapts a per-example function (no temporal context) into an assertion.
template <typename Example>
class PointwiseAssertion final : public Assertion<Example> {
 public:
  using Fn = std::function<double(const Example&)>;

  PointwiseAssertion(std::string name, Fn fn)
      : Assertion<Example>(std::move(name)), fn_(std::move(fn)) {
    common::Check(static_cast<bool>(fn_), "assertion function must be set");
  }

  std::vector<double> CheckAll(std::span<const Example> examples) override {
    std::vector<double> severities;
    severities.reserve(examples.size());
    for (const auto& example : examples) {
      const double severity = fn_(example);
      common::CheckNonNegative(severity, "assertion severity");
      severities.push_back(severity);
    }
    return severities;
  }

  std::size_t temporal_radius() const override { return 0; }

 private:
  Fn fn_;
};

/// An ordered collection of assertions — the paper's "assertion database".
///
/// This is the OMG registration surface: `AddAssertion` mirrors the paper's
/// `AddAssertion(func)`; consistency assertions (§4) are generated by
/// `core/consistency.hpp` and registered here like any user assertion.
template <typename Example>
class AssertionSuite {
 public:
  AssertionSuite() = default;

  /// Registers an assertion object. Names must be unique.
  void Add(std::unique_ptr<Assertion<Example>> assertion) {
    common::Check(assertion != nullptr, "null assertion");
    common::Check(index_by_name_.find(assertion->name()) ==
                      index_by_name_.end(),
                  "duplicate assertion name: " + assertion->name());
    index_by_name_.emplace(assertion->name(), assertions_.size());
    assertions_.push_back(std::move(assertion));
  }

  /// Registers a stream-level function assertion. `temporal_radius`
  /// optionally declares the locality contract (see FunctionAssertion).
  void AddFunction(std::string name,
                   typename FunctionAssertion<Example>::Fn fn,
                   std::size_t temporal_radius = kUnboundedRadius) {
    Add(std::make_unique<FunctionAssertion<Example>>(
        std::move(name), std::move(fn), temporal_radius));
  }

  /// Registers a per-example function assertion.
  void AddPointwise(std::string name,
                    typename PointwiseAssertion<Example>::Fn fn) {
    Add(std::make_unique<PointwiseAssertion<Example>>(std::move(name),
                                                      std::move(fn)));
  }

  std::size_t size() const { return assertions_.size(); }
  bool empty() const { return assertions_.empty(); }

  Assertion<Example>& at(std::size_t i) { return *assertions_.at(i); }
  const Assertion<Example>& at(std::size_t i) const {
    return *assertions_.at(i);
  }

  /// Names of all registered assertions, in registration order.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(assertions_.size());
    for (const auto& a : assertions_) names.push_back(a->name());
    return names;
  }

  /// Index of the assertion with the given name; throws if absent.
  std::size_t IndexOf(const std::string& name) const {
    const auto it = index_by_name_.find(name);
    if (it == index_by_name_.end()) {
      throw common::CheckError("unknown assertion: " + name);
    }
    return it->second;
  }

  /// Runs every assertion over the stream; column a of the result holds
  /// assertion a's severities.
  SeverityMatrix CheckAll(std::span<const Example> examples) {
    SeverityMatrix matrix(examples.size(), assertions_.size());
    for (std::size_t a = 0; a < assertions_.size(); ++a) {
      const auto severities = assertions_[a]->CheckAll(examples);
      common::Check(severities.size() == examples.size(),
                    "assertion returned wrong severity count: " +
                        assertions_[a]->name());
      matrix.SetColumn(a, severities);
    }
    return matrix;
  }

 private:
  std::vector<std::unique_ptr<Assertion<Example>>> assertions_;
  std::unordered_map<std::string, std::size_t> index_by_name_;
};

}  // namespace omg::core
