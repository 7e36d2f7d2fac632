// Declarative-config + facade registration of the AV assertions.
//
// `[av.agree, av.multibox]` in that order reproduces BuildAvSuite exactly.
// The DomainTraits specialization makes AvExample servable through the
// type-erased serve::Monitor facade; RegisterAvDomain exposes the factory
// as the facade's "av" domain.
#pragma once

#include <string>
#include <string_view>

#include "av/assertions.hpp"
#include "config/assertion_factory.hpp"
#include "serve/any_example.hpp"
#include "serve/domain_registry.hpp"

namespace omg::serve {

/// Facade identity of AvExample: domain tag "av".
template <>
struct DomainTraits<av::AvExample> {
  static constexpr std::string_view kDomain = "av";
  static std::string DebugString(const av::AvExample& example);
};

}  // namespace omg::serve

namespace omg::av {

/// Registers the AV assertions:
///   * `av.agree`    { iou } — camera detections and projected LIDAR boxes
///     must agree (§2.1's sensor_agreement, counted in both directions)
///   * `av.multibox` { iou } — triple-overlap over camera detections
void RegisterAvAssertions(config::AssertionFactory<AvExample>& factory);

/// Registers the "av" domain with the facade registry: erased builders
/// over RegisterAvAssertions (event names qualified "av/...").
void RegisterAvDomain(serve::DomainRegistry& registry);

}  // namespace omg::av
