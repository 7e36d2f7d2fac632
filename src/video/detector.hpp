// Trainable SSD-like detector over night-street proposals.
//
// The detector scores each proposal with a small MLP (P(car)), keeps scored
// proposals above a confidence threshold, and applies NMS — a faithful
// miniature of a single-class proposal-scoring detector. It is "pretrained"
// on the COCO-like set and then fine-tuned with whatever labels active
// learning or weak supervision provides.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/box.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"
#include "video/world.hpp"

namespace omg::video {

/// Detector hyper-parameters (defaults used by all benches).
struct DetectorConfig {
  std::vector<std::size_t> hidden = {24};
  /// Deployment threshold: detections the downstream system sees.
  double confidence_threshold = 0.5;
  /// Low evaluation threshold: kept for mAP PR-curve computation.
  double eval_threshold = 0.05;
  double nms_iou = 0.5;
  nn::SgdConfig pretrain_sgd{0.08, 0.9, 1e-4, 32, 40};
  nn::SgdConfig finetune_sgd{0.02, 0.9, 1e-4, 32, 8};
};

/// MLP-scored proposal detector.
class SsdDetector {
 public:
  SsdDetector(DetectorConfig config, std::size_t feature_dim,
              std::uint64_t seed);

  /// Trains from scratch on the pretraining set.
  void Pretrain(const nn::Dataset& data);

  /// Fine-tunes on accumulated labels (call with the full labeled set).
  void FineTune(const nn::Dataset& data);

  /// P(car) for one proposal.
  double Score(const Proposal& proposal) const;

  /// Thresholded + NMS detections, as the deployed system would emit them.
  std::vector<geometry::Detection> Detect(const Frame& frame) const;

  /// Low-threshold detections for mAP evaluation.
  std::vector<geometry::Detection> DetectForEval(const Frame& frame) const;

  /// Mean over proposals of the max-class probability: the frame-level
  /// confidence used by least-confident uncertainty sampling.
  double FrameConfidence(const Frame& frame) const;

  /// Replaces the scoring model (hot-swap pickup from a loop::ModelRegistry;
  /// the architecture must match the current one).
  void SetModel(nn::Mlp model);

  const nn::Mlp& model() const { return model_; }

 private:
  std::vector<geometry::Detection> DetectWithThreshold(
      const Frame& frame, double threshold) const;

  DetectorConfig config_;
  common::Rng train_rng_;  // declared before model_: also seeds weight init
  nn::Mlp model_;
};

}  // namespace omg::video
