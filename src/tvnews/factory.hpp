// Declarative-config + facade registration of the TV-news assertions.
//
// `[tvnews.consistency]` with default parameters reproduces BuildNewsSuite
// exactly. The DomainTraits specialization makes NewsFrame servable through
// the type-erased serve::Monitor facade; RegisterNewsDomain exposes the
// factory as the facade's "tvnews" domain.
#pragma once

#include <string>
#include <string_view>

#include "config/assertion_factory.hpp"
#include "serve/any_example.hpp"
#include "serve/domain_registry.hpp"
#include "tvnews/news.hpp"

namespace omg::serve {

/// Facade identity of NewsFrame: domain tag "tvnews".
template <>
struct DomainTraits<tvnews::NewsFrame> {
  static constexpr std::string_view kDomain = "tvnews";
  static std::string DebugString(const tvnews::NewsFrame& frame);
};

}  // namespace omg::serve

namespace omg::tvnews {

/// Registers the TV-news consistency source:
///   * `tvnews.consistency` { attributes, temporal_threshold } — one
///     "consistent:<key>" assertion per listed face attribute (Id = scene +
///     desk slot); the default temporal_threshold of 0 disables
///     flicker/appear because scene cuts are hard boundaries.
void RegisterNewsAssertions(config::AssertionFactory<NewsFrame>& factory);

/// Registers the "tvnews" domain with the facade registry: erased builders
/// over RegisterNewsAssertions (event names qualified "tvnews/...").
void RegisterNewsDomain(serve::DomainRegistry& registry);

}  // namespace omg::tvnews
