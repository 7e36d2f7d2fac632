// Declarative-config + facade registration of the ECG assertion.
//
// `[ecg.oscillation]` reproduces BuildEcgSuite exactly. The DomainTraits
// specialization makes EcgExample servable through the type-erased
// serve::Monitor facade; RegisterEcgDomain exposes the factory as the
// facade's "ecg" domain.
#pragma once

#include <string>
#include <string_view>

#include "config/assertion_factory.hpp"
#include "ecg/ecg.hpp"
#include "serve/any_example.hpp"
#include "serve/domain_registry.hpp"

namespace omg::serve {

/// Facade identity of EcgExample: domain tag "ecg".
template <>
struct DomainTraits<ecg::EcgExample> {
  static constexpr std::string_view kDomain = "ecg";
  static std::string DebugString(const ecg::EcgExample& example);
};

}  // namespace omg::serve

namespace omg::ecg {

/// Registers the deployed ECG assertion:
///   * `ecg.oscillation` { temporal_threshold } — the consistency-generated
///     "ECG" assertion (Id = predicted class, T = 30 s by default): a class
///     present for < T seconds between absences is an A -> B -> A
///     oscillation, which the ESC guideline forbids calling.
void RegisterEcgAssertions(config::AssertionFactory<EcgExample>& factory);

/// Registers the "ecg" domain with the facade registry: erased builders
/// over RegisterEcgAssertions (event names qualified "ecg/...").
void RegisterEcgDomain(serve::DomainRegistry& registry);

}  // namespace omg::ecg
