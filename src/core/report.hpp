// Human-readable summaries of assertion results — the "populate a
// dashboard" use of §2.3. Renders severity matrices as aligned tables.
#pragma once

#include <string>
#include <vector>

#include "core/severity_matrix.hpp"

namespace omg::core {

/// Per-assertion aggregate over a batch run.
struct AssertionSummary {
  std::string assertion;       ///< assertion name (column label)
  std::size_t examples_fired = 0;  ///< examples with severity > 0
  double fire_rate = 0.0;      ///< examples fired / examples checked
  double max_severity = 0.0;   ///< largest severity seen
  double mean_severity = 0.0;  ///< over firing examples only
};

/// Aggregates a severity matrix (assertion names give column labels).
std::vector<AssertionSummary> Summarize(
    const SeverityMatrix& matrix, const std::vector<std::string>& names);

/// Renders summaries as an aligned text table.
std::string RenderSummaries(const std::vector<AssertionSummary>& summaries);

}  // namespace omg::core
