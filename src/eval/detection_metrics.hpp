// Object-detection evaluation: PR curves and (mean) average precision.
//
// Implements the standard VOC-style protocol used (via COCO tooling) by the
// paper's Figure 4/9 and Table 4: detections are matched to ground truth
// greedily by descending confidence at a fixed IoU threshold, each ground
// truth can match at most one detection, and AP is the area under the
// interpolated precision-recall curve (all-points interpolation).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "geometry/box.hpp"

namespace omg::eval {

/// A ground-truth object within one frame.
struct GroundTruthBox {
  geometry::Box2D box;
  std::string label = "car";
};

/// One frame's detections together with its ground truth.
struct FrameEval {
  std::vector<geometry::Detection> detections;
  std::vector<GroundTruthBox> truths;
};

/// One point on a precision-recall curve.
struct PrPoint {
  double recall = 0.0;
  double precision = 0.0;
  double confidence = 0.0;  ///< threshold that produced this point
};

/// Precision-recall curve for one class over a set of frames.
std::vector<PrPoint> PrecisionRecallCurve(std::span<const FrameEval> frames,
                                          const std::string& label,
                                          double iou_threshold = 0.5);

/// Average precision (all-points interpolated area under the PR curve) for
/// one class. Returns 0 when the class never appears in the ground truth.
double AveragePrecision(std::span<const FrameEval> frames,
                        const std::string& label,
                        double iou_threshold = 0.5);

/// Mean AP over every class present in the ground truth.
double MeanAveragePrecision(std::span<const FrameEval> frames,
                            double iou_threshold = 0.5);

/// Greedy matching outcome for one frame.
struct MatchResult {
  /// Entry i: detection i (stored order) matched a same-label truth.
  std::vector<bool> detection_correct;
  /// Entry t: truth t was claimed by some detection.
  std::vector<bool> truth_matched;
};

/// Matches one frame's detections to its truths: detections claim their
/// best unclaimed same-label truth at IoU >= threshold, in descending
/// confidence order.
MatchResult MatchFrame(const FrameEval& frame, double iou_threshold = 0.5);

}  // namespace omg::eval
