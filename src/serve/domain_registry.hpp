// Domain name -> erased suite builder registry for the serving facade.
//
// A *domain* is one example type plus its assertion vocabulary. Each domain
// registers, under its DomainTraits tag, how to turn a declarative
// [suite <domain>] spec into an erased per-stream suite factory the
// non-templated serve::Monitor can host — the last step of the type-erasure
// funnel:
//
//   config::AssertionFactory<T>  (typed builders, schema-validated)
//        │  config::BuildSuiteBundle(factory, spec), once per stream
//   runtime::SuiteBundle<T>      (a typed per-stream suite + hook)
//        │  serve::EraseSuiteBundle
//   serve::AnySuiteBundle        (qualified names + typed scorer factory)
//
// The four shipped domains register through serve::MakeDefaultDomainRegistry
// (serve/domains.hpp); adding a domain is a DomainTraits specialization
// plus one DomainRegistry::Domain entry (see src/video/factory.cpp).
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "serve/any_suite.hpp"

namespace omg::config {
struct SuiteSpec;  // config/scenario.hpp; only referenced here
}  // namespace omg::config

namespace omg::net {
struct PayloadCodec;  // net/codec.hpp; registered via SetCodec
}  // namespace omg::net

namespace omg::serve {

/// Registry of the domains one facade deployment can serve.
class DomainRegistry {
 public:
  /// One registered domain.
  struct Domain {
    /// The DomainTraits tag ("video"); also the [suite <domain>] label.
    std::string name;
    /// Builds an erased per-stream suite factory from a validated
    /// declarative suite spec. Unknown assertion names / bad parameters
    /// throw SpecError positioned in the scenario file.
    std::function<AnySuiteFactory(const config::SuiteSpec&)>
        make_suite_factory;
    /// Writes this domain's registered-assertion listing (the scenario
    /// harness's --describe output).
    std::function<void(std::ostream&)> describe;
    /// Wire codec for this domain's example payloads (net/codec.hpp);
    /// null for domains served in-process only. Installed via SetCodec —
    /// typically net::RegisterDefaultCodecs — rather than at Register so
    /// purely local deployments never name the net layer.
    std::shared_ptr<const net::PayloadCodec> codec;
  };

  /// Registers `domain`; names must be unique and hooks non-null.
  void Register(Domain domain) {
    common::Check(!domain.name.empty(), "domain name must be non-empty");
    common::Check(static_cast<bool>(domain.make_suite_factory),
                  "domain '" + domain.name + "' needs a suite factory hook");
    common::Check(static_cast<bool>(domain.describe),
                  "domain '" + domain.name + "' needs a describe hook");
    const auto [it, inserted] =
        domains_.emplace(domain.name, std::move(domain));
    common::Check(inserted, "duplicate domain registration: " + it->first);
  }

  /// True when `name` is registered.
  bool Has(const std::string& name) const {
    return domains_.find(name) != domains_.end();
  }

  /// Installs (or replaces) the wire codec of registered domain `name`;
  /// throws CheckError when the domain is absent or `codec` is null.
  void SetCodec(const std::string& name,
                std::shared_ptr<const net::PayloadCodec> codec) {
    common::Check(codec != nullptr, "SetCodec: null codec for '" + name +
                                        "'");
    const auto it = domains_.find(name);
    common::Check(it != domains_.end(),
                  "SetCodec: unregistered domain '" + name + "'");
    it->second.codec = std::move(codec);
  }

  /// The wire codec of domain `name`, or null when the domain is absent
  /// or serves in-process only (the never-throwing lookup the server's
  /// frame path needs).
  const net::PayloadCodec* CodecFor(const std::string& name) const {
    const auto it = domains_.find(name);
    return it == domains_.end() ? nullptr : it->second.codec.get();
  }

  /// The entry for `name`; throws CheckError when absent (callers holding
  /// a config position produce a SpecError instead — see Has()).
  const Domain& At(const std::string& name) const {
    const auto it = domains_.find(name);
    if (it == domains_.end()) {
      throw common::CheckError("unknown domain '" + name +
                               "' (registered: " + JoinedNames() + ")");
    }
    return it->second;
  }

  /// Registered domain names, sorted.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(domains_.size());
    for (const auto& [name, domain] : domains_) names.push_back(name);
    return names;
  }

  /// "a, b, c" over the registered names (error messages / listings).
  std::string JoinedNames() const {
    std::string joined;
    for (const auto& [name, domain] : domains_) {
      if (!joined.empty()) joined += ", ";
      joined += name;
    }
    return joined;
  }

 private:
  std::map<std::string, Domain> domains_;
};

}  // namespace omg::serve
