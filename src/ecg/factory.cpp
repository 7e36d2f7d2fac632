#include "ecg/factory.hpp"

#include <memory>
#include <ostream>
#include <span>
#include <utility>

#include "common/table.hpp"
#include "core/consistency.hpp"
#include "core/consistency_adapter.hpp"
#include "serve/domains.hpp"

namespace omg::serve {

std::string DomainTraits<ecg::EcgExample>::DebugString(
    const ecg::EcgExample& example) {
  return "ecg record " + example.record + " @" +
         common::FormatDouble(example.timestamp, 1) + "s, predicted " +
         ecg::RhythmName(example.predicted);
}

}  // namespace omg::serve

namespace omg::ecg {

void RegisterEcgAssertions(config::AssertionFactory<EcgExample>& factory) {
  factory.Register(
      "ecg.oscillation",
      "the 30-second consistency assertion (named \"ECG\"): fires when the "
      "predicted class changes A -> B -> A within T seconds",
      {{"temporal_threshold", config::ParamType::kDouble, "30.0",
        "T in seconds (the ESC guideline's 30 s)"}},
      [](const config::SpecSection& params,
         config::AssertionFactory<EcgExample>::BuildContext& context) {
        core::ConsistencyConfig consistency;
        consistency.temporal_threshold =
            params.GetDouble("temporal_threshold", 30.0);
        auto analyzer = std::make_shared<core::ConsistencyAnalyzer<EcgExample>>(
            consistency, [](std::span<const EcgExample> examples) {
              return ExtractEcgRecords(examples);
            });
        // As in BuildEcgSuite: the deployed assertion is the `appear`
        // column (index 1) of the generated {flicker, appear} pair.
        context.suite.Add(
            std::make_unique<core::GeneratedConsistencyAssertion<EcgExample>>(
                "ECG", analyzer, 1));
        context.invalidators.push_back([analyzer] { analyzer->Invalidate(); });
      });
}

void RegisterEcgDomain(serve::DomainRegistry& registry) {
  serve::RegisterDomain<EcgExample>(registry, "ecg",
                                   &RegisterEcgAssertions);
}

}  // namespace omg::ecg
