#include "av/factory.hpp"

#include <memory>
#include <ostream>
#include <utility>

#include "common/table.hpp"
#include "serve/domains.hpp"
#include "video/assertions.hpp"

namespace omg::serve {

std::string DomainTraits<av::AvExample>::DebugString(
    const av::AvExample& example) {
  return "av sample " + std::to_string(example.sample_index) + " (" +
         example.scene + ") @" +
         common::FormatDouble(example.timestamp, 2) + "s, " +
         std::to_string(example.camera.size()) + " camera / " +
         std::to_string(example.lidar_projected.size()) + " lidar boxes";
}

}  // namespace omg::serve

namespace omg::av {

void RegisterAvAssertions(config::AssertionFactory<AvExample>& factory) {
  const AvAssertionConfig defaults;

  factory.Register(
      "av.agree",
      "camera detections with no overlapping projected LIDAR box (and vice "
      "versa) count as disagreements",
      {{"iou", config::ParamType::kDouble, "0.20",
        "minimum IoU for a camera box and a projected LIDAR box to agree"}},
      [defaults](const config::SpecSection& params,
                 config::AssertionFactory<AvExample>::BuildContext& context) {
        const double iou = params.GetDouble("iou", defaults.agree_iou);
        context.suite.AddPointwise("agree", [iou](const AvExample& example) {
          return AgreeSeverity(example, iou);
        });
      });

  factory.Register(
      "av.multibox",
      "triple-overlap over the camera detections (same check as "
      "video.multibox)",
      {{"iou", config::ParamType::kDouble, "0.30",
        "pairwise IoU above which camera boxes count as highly overlapping"}},
      [defaults](const config::SpecSection& params,
                 config::AssertionFactory<AvExample>::BuildContext& context) {
        const double iou = params.GetDouble("iou", defaults.multibox_iou);
        context.suite.AddPointwise(
            "multibox", [iou](const AvExample& example) {
              return video::MultiboxSeverity(example.camera, iou);
            });
      });
}

void RegisterAvDomain(serve::DomainRegistry& registry) {
  serve::RegisterDomain<AvExample>(registry, "av",
                                  &RegisterAvAssertions);
}

}  // namespace omg::av
