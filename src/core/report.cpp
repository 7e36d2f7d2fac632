#include "core/report.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/table.hpp"

namespace omg::core {

std::vector<AssertionSummary> Summarize(
    const SeverityMatrix& matrix, const std::vector<std::string>& names) {
  common::Check(names.size() == matrix.num_assertions(),
                "assertion name count mismatch");
  std::vector<AssertionSummary> summaries;
  summaries.reserve(names.size());
  for (std::size_t a = 0; a < names.size(); ++a) {
    AssertionSummary summary;
    summary.assertion = names[a];
    double total = 0.0;
    for (std::size_t e = 0; e < matrix.num_examples(); ++e) {
      const double severity = matrix.At(e, a);
      if (severity <= 0.0) continue;
      ++summary.examples_fired;
      total += severity;
      summary.max_severity = std::max(summary.max_severity, severity);
    }
    if (matrix.num_examples() > 0) {
      summary.fire_rate = static_cast<double>(summary.examples_fired) /
                          static_cast<double>(matrix.num_examples());
    }
    if (summary.examples_fired > 0) {
      summary.mean_severity =
          total / static_cast<double>(summary.examples_fired);
    }
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

std::string RenderSummaries(
    const std::vector<AssertionSummary>& summaries) {
  common::TextTable table(
      {"Assertion", "Fired", "Fire rate", "Mean severity", "Max severity"});
  for (const auto& summary : summaries) {
    table.AddRow({summary.assertion,
                  std::to_string(summary.examples_fired),
                  common::FormatPercent(summary.fire_rate, 1),
                  common::FormatDouble(summary.mean_severity, 2),
                  common::FormatDouble(summary.max_severity, 2)});
  }
  return table.ToString();
}

}  // namespace omg::core
