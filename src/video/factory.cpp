#include "video/factory.hpp"

#include <memory>
#include <ostream>
#include <span>
#include <utility>

#include "common/table.hpp"
#include "core/consistency.hpp"
#include "core/consistency_adapter.hpp"
#include "serve/domains.hpp"

namespace omg::serve {

std::string DomainTraits<video::VideoExample>::DebugString(
    const video::VideoExample& example) {
  return "video frame " + std::to_string(example.frame_index) + " @" +
         common::FormatDouble(example.timestamp, 2) + "s, " +
         std::to_string(example.detections.size()) + " detections";
}

}  // namespace omg::serve

namespace omg::video {

void RegisterVideoAssertions(
    config::AssertionFactory<VideoExample>& factory) {
  const VideoAssertionConfig defaults;

  factory.Register(
      "video.multibox",
      "three detections should not highly overlap (Figure 7); severity is "
      "the count of mutually-overlapping triples",
      {{"iou", config::ParamType::kDouble, "0.30",
        "pairwise IoU above which boxes count as highly overlapping"}},
      [defaults](const config::SpecSection& params,
                 config::AssertionFactory<VideoExample>::BuildContext&
                     context) {
        const double iou = params.GetDouble("iou", defaults.multibox_iou);
        context.suite.AddPointwise(
            "multibox", [iou](const VideoExample& example) {
              return MultiboxSeverity(example.detections, iou);
            });
      });

  factory.Register(
      "video.consistency",
      "the IoU-tracker consistency source (§4) generating `flicker` and "
      "`appear` with temporal threshold T",
      {{"temporal_threshold", config::ParamType::kDouble, "1.0",
        "T in seconds; identifiers absent/present for < T fire"},
       {"tracker_iou", config::ParamType::kDouble, "0.2",
        "association IoU of the Id function's tracker"},
       {"tracker_max_misses", config::ParamType::kInt, "2",
        "frames a track coasts unmatched before retiring"}},
      [defaults](const config::SpecSection& params,
                 config::AssertionFactory<VideoExample>::BuildContext&
                     context) {
        core::ConsistencyConfig consistency;
        consistency.temporal_threshold = params.GetDouble(
            "temporal_threshold", defaults.temporal_threshold);
        geometry::TrackerConfig tracker = defaults.tracker;
        tracker.min_iou = params.GetDouble("tracker_iou", tracker.min_iou);
        tracker.max_coast_frames =
            params.GetSize("tracker_max_misses", tracker.max_coast_frames);
        auto analyzer = core::AddConsistencyAssertion<VideoExample>(
            context.suite, consistency,
            [tracker](std::span<const VideoExample> examples) {
              return ExtractVideoRecords(examples, tracker);
            });
        context.invalidators.push_back(
            [analyzer] { analyzer->Invalidate(); });
      });
}

void RegisterVideoDomain(serve::DomainRegistry& registry) {
  serve::RegisterDomain<VideoExample>(registry, "video",
                                     &RegisterVideoAssertions);
}

}  // namespace omg::video
