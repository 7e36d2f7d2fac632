// Declarative-config + facade registration of the night-street assertions.
//
// Registers the video suite's building blocks with a
// config::AssertionFactory so scenario files (configs/*.conf) can
// instantiate them by name; `[video.multibox, video.consistency]` in that
// order reproduces BuildVideoSuite exactly (tested in tests/test_config.cpp).
// The DomainTraits specialization below makes VideoExample servable through
// the type-erased serve::Monitor facade, and RegisterVideoDomain exposes the
// factory as the facade's "video" domain.
#pragma once

#include <string>
#include <string_view>

#include "config/assertion_factory.hpp"
#include "serve/any_example.hpp"
#include "serve/domain_registry.hpp"
#include "video/assertions.hpp"

namespace omg::serve {

/// Facade identity of VideoExample: domain tag "video".
template <>
struct DomainTraits<video::VideoExample> {
  static constexpr std::string_view kDomain = "video";
  static std::string DebugString(const video::VideoExample& example);
};

}  // namespace omg::serve

namespace omg::video {

/// Registers the night-street assertions:
///   * `video.multibox`    { iou }  — the custom triple-overlap assertion
///   * `video.consistency` { temporal_threshold, tracker_iou,
///                           tracker_max_misses } — the consistency source
///     generating `flicker` and `appear` (§4), with its invalidation hook
void RegisterVideoAssertions(config::AssertionFactory<VideoExample>& factory);

/// Registers the "video" domain with the facade registry: erased builders
/// over RegisterVideoAssertions (event names qualified "video/...").
void RegisterVideoDomain(serve::DomainRegistry& registry);

}  // namespace omg::video
