#include "eval/detection_metrics.hpp"

#include <algorithm>
#include <set>

#include "common/check.hpp"

namespace omg::eval {

namespace {

/// A detection flattened across frames for global PR computation.
struct Flat {
  double confidence;
  std::size_t frame;
  std::size_t index;  // within the frame
};

}  // namespace

std::vector<PrPoint> PrecisionRecallCurve(std::span<const FrameEval> frames,
                                          const std::string& label,
                                          double iou_threshold) {
  std::size_t total_truths = 0;
  std::vector<Flat> flats;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    for (const auto& t : frames[f].truths) {
      if (t.label == label) ++total_truths;
    }
    for (std::size_t d = 0; d < frames[f].detections.size(); ++d) {
      if (frames[f].detections[d].label == label) {
        flats.push_back(Flat{frames[f].detections[d].confidence, f, d});
      }
    }
  }
  if (total_truths == 0) return {};
  std::sort(flats.begin(), flats.end(), [](const Flat& a, const Flat& b) {
    return a.confidence > b.confidence;
  });

  // Greedy global matching: walk detections by descending confidence and let
  // each claim its best unclaimed same-frame truth.
  std::vector<std::vector<bool>> truth_used(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    truth_used[f].assign(frames[f].truths.size(), false);
  }

  std::vector<PrPoint> curve;
  std::size_t tp = 0;
  std::size_t fp = 0;
  for (const auto& flat : flats) {
    const auto& det = frames[flat.frame].detections[flat.index];
    double best_iou = 0.0;
    std::size_t best_truth = 0;
    bool found = false;
    const auto& truths = frames[flat.frame].truths;
    for (std::size_t t = 0; t < truths.size(); ++t) {
      if (truths[t].label != label || truth_used[flat.frame][t]) continue;
      const double iou = geometry::Iou(det.box, truths[t].box);
      if (iou >= iou_threshold && iou > best_iou) {
        best_iou = iou;
        best_truth = t;
        found = true;
      }
    }
    if (found) {
      truth_used[flat.frame][best_truth] = true;
      ++tp;
    } else {
      ++fp;
    }
    curve.push_back(PrPoint{
        static_cast<double>(tp) / static_cast<double>(total_truths),
        static_cast<double>(tp) / static_cast<double>(tp + fp),
        flat.confidence});
  }
  return curve;
}

double AveragePrecision(std::span<const FrameEval> frames,
                        const std::string& label, double iou_threshold) {
  const auto curve = PrecisionRecallCurve(frames, label, iou_threshold);
  if (curve.empty()) return 0.0;
  // All-points interpolation: precision at recall r is the max precision at
  // any recall >= r; AP is the area under that staircase.
  std::vector<double> precision(curve.size());
  double running_max = 0.0;
  for (std::size_t i = curve.size(); i-- > 0;) {
    running_max = std::max(running_max, curve[i].precision);
    precision[i] = running_max;
  }
  double ap = 0.0;
  double prev_recall = 0.0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    ap += (curve[i].recall - prev_recall) * precision[i];
    prev_recall = curve[i].recall;
  }
  return ap;
}

double MeanAveragePrecision(std::span<const FrameEval> frames,
                            double iou_threshold) {
  std::set<std::string> labels;
  for (const auto& frame : frames) {
    for (const auto& t : frame.truths) labels.insert(t.label);
  }
  if (labels.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& label : labels) {
    sum += AveragePrecision(frames, label, iou_threshold);
  }
  return sum / static_cast<double>(labels.size());
}

MatchResult MatchFrame(const FrameEval& frame, double iou_threshold) {
  std::vector<std::size_t> order(frame.detections.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return frame.detections[a].confidence > frame.detections[b].confidence;
  });
  MatchResult result;
  result.truth_matched.assign(frame.truths.size(), false);
  result.detection_correct.assign(frame.detections.size(), false);
  for (const std::size_t d : order) {
    const auto& det = frame.detections[d];
    double best_iou = 0.0;
    std::size_t best_truth = 0;
    bool found = false;
    for (std::size_t t = 0; t < frame.truths.size(); ++t) {
      if (result.truth_matched[t] || frame.truths[t].label != det.label) {
        continue;
      }
      const double iou = geometry::Iou(det.box, frame.truths[t].box);
      if (iou >= iou_threshold && iou > best_iou) {
        best_iou = iou;
        best_truth = t;
        found = true;
      }
    }
    if (found) {
      result.truth_matched[best_truth] = true;
      result.detection_correct[d] = true;
    }
  }
  return result;
}

}  // namespace omg::eval
