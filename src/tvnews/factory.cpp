#include "tvnews/factory.hpp"

#include <memory>
#include <ostream>
#include <span>
#include <utility>

#include "common/table.hpp"
#include "core/consistency.hpp"
#include "core/consistency_adapter.hpp"
#include "serve/domains.hpp"

namespace omg::serve {

std::string DomainTraits<tvnews::NewsFrame>::DebugString(
    const tvnews::NewsFrame& frame) {
  return "tvnews frame " + std::to_string(frame.index) + " @" +
         common::FormatDouble(frame.timestamp, 1) + "s, scene " +
         std::to_string(frame.scene_id) + ", " +
         std::to_string(frame.faces.size()) + " faces";
}

}  // namespace omg::serve

namespace omg::tvnews {

void RegisterNewsAssertions(config::AssertionFactory<NewsFrame>& factory) {
  factory.Register(
      "tvnews.consistency",
      "identity/gender/hair of faces sharing a desk slot within one scene "
      "must be consistent (Id = scene + quantised box centre)",
      {{"attributes", config::ParamType::kStringList,
        "[identity, gender, hair]",
        "face attributes checked for per-identifier consistency"},
       {"temporal_threshold", config::ParamType::kDouble, "0.0",
        "T in seconds; 0 disables flicker/appear (scene cuts are hard "
        "boundaries)"}},
      [](const config::SpecSection& params,
         config::AssertionFactory<NewsFrame>::BuildContext& context) {
        core::ConsistencyConfig consistency;
        consistency.attribute_keys = params.GetStringList(
            "attributes", {"identity", "gender", "hair"});
        consistency.temporal_threshold =
            params.GetDouble("temporal_threshold", 0.0);
        auto analyzer = core::AddConsistencyAssertion<NewsFrame>(
            context.suite, consistency,
            [](std::span<const NewsFrame> examples) {
              return ExtractNewsRecords(examples);
            });
        context.invalidators.push_back([analyzer] { analyzer->Invalidate(); });
      });
}

void RegisterNewsDomain(serve::DomainRegistry& registry) {
  serve::RegisterDomain<NewsFrame>(registry, "tvnews",
                                  &RegisterNewsAssertions);
}

}  // namespace omg::tvnews
