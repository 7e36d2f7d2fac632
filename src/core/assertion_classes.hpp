// The remaining assertion classes of the paper's taxonomy (Appendix B,
// Table 5): input-validation assertions (schema preconditions over model
// inputs) and perturbation assertions (outputs should be stable under
// label-preserving input perturbations).
//
// Consistency and domain-knowledge assertions live in consistency.hpp and
// the domain modules; these two classes are generic and assembled here.
#pragma once

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/assertion.hpp"

namespace omg::core {

/// Constraint on one input field (Table 5, "input validation": e.g.
/// boolean features encoded as integers must be 0 or 1; all features must
/// be present/finite).
struct FieldConstraint {
  std::string name;
  std::size_t index = 0;  ///< position in the feature vector
  double min = std::numeric_limits<double>::lowest();
  double max = std::numeric_limits<double>::max();
  bool must_be_integral = false;
  bool must_be_finite = true;
};

/// A simple input schema: dimensionality plus per-field constraints.
class InputSchema {
 public:
  InputSchema() = default;

  /// Declares the expected feature count (0 = unchecked).
  InputSchema& ExpectDimension(std::size_t dim) {
    dimension_ = dim;
    return *this;
  }

  /// Adds a field constraint (chainable).
  InputSchema& Field(FieldConstraint constraint) {
    constraints_.push_back(std::move(constraint));
    return *this;
  }

  /// Convenience: a boolean field must be exactly 0 or 1.
  InputSchema& BooleanField(std::string name, std::size_t index) {
    FieldConstraint c;
    c.name = std::move(name);
    c.index = index;
    c.min = 0.0;
    c.max = 1.0;
    c.must_be_integral = true;
    return Field(std::move(c));
  }

  /// Number of violated constraints for one feature vector (the severity
  /// of the generated assertion; 0 = schema satisfied).
  double Violations(std::span<const double> features) const {
    double violations = 0.0;
    if (dimension_ != 0 && features.size() != dimension_) violations += 1.0;
    for (const auto& constraint : constraints_) {
      if (constraint.index >= features.size()) {
        violations += 1.0;
        continue;
      }
      const double value = features[constraint.index];
      if (constraint.must_be_finite && !std::isfinite(value)) {
        violations += 1.0;
        continue;
      }
      if (value < constraint.min || value > constraint.max) {
        violations += 1.0;
        continue;
      }
      if (constraint.must_be_integral &&
          value != std::nearbyint(value)) {
        violations += 1.0;
      }
    }
    return violations;
  }

 private:
  std::size_t dimension_ = 0;
  std::vector<FieldConstraint> constraints_;
};

/// Registers a schema-validation assertion: `features_of` extracts the raw
/// input features from an example.
template <typename Example>
void AddSchemaAssertion(
    AssertionSuite<Example>& suite, std::string name, InputSchema schema,
    std::function<std::vector<double>(const Example&)> features_of) {
  common::Check(static_cast<bool>(features_of), "feature extractor not set");
  suite.AddPointwise(
      std::move(name),
      [schema = std::move(schema), features_of = std::move(features_of)](
          const Example& example) {
        return schema.Violations(features_of(example));
      });
}

/// Registers a perturbation assertion (Table 5: "replacing parts of the
/// input with similar data / adding noise should not modify model
/// outputs"). For each example, `perturb` produces variant inputs and
/// `agree` compares the model's output on the original vs a variant;
/// severity = number of disagreeing variants.
///
/// The model itself is captured inside `perturb`/`agree`, keeping the
/// assertion an arbitrary function over inputs and outputs as §2.1
/// requires.
template <typename Example>
void AddPerturbationAssertion(
    AssertionSuite<Example>& suite, std::string name,
    std::function<std::vector<Example>(const Example&)> perturb,
    std::function<bool(const Example&, const Example&)> agree) {
  common::Check(static_cast<bool>(perturb), "perturbation not set");
  common::Check(static_cast<bool>(agree), "agreement check not set");
  suite.AddPointwise(
      std::move(name),
      [perturb = std::move(perturb),
       agree = std::move(agree)](const Example& example) {
        double disagreements = 0.0;
        for (const Example& variant : perturb(example)) {
          if (!agree(example, variant)) disagreements += 1.0;
        }
        return disagreements;
      });
}

}  // namespace omg::core
