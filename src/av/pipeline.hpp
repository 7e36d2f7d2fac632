// End-to-end AV pipeline: world + fixed LIDAR model + trainable camera
// model + assertions, wired for active learning (Figure 4b / 9b), weak
// supervision via LIDAR box imputation (Table 4) and assertion precision
// (Table 3).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "av/assertions.hpp"
#include "av/world.hpp"
#include "bandit/active_learning.hpp"
#include "nn/mlp.hpp"
#include "video/pipeline.hpp"  // WeakSupervisionResult, AssertionPrecisionSample

namespace omg::av {

/// Trainable camera detector (SSD stand-in) over AvSample proposals.
struct CameraDetectorConfig {
  std::vector<std::size_t> hidden = {16};
  double confidence_threshold = 0.5;
  double eval_threshold = 0.05;
  double nms_iou = 0.5;
  nn::SgdConfig pretrain_sgd{0.08, 0.9, 1e-4, 32, 40};
  nn::SgdConfig finetune_sgd{0.03, 0.9, 1e-4, 32, 12};
};

class CameraDetector {
 public:
  CameraDetector(CameraDetectorConfig config, std::size_t feature_dim,
                 std::uint64_t seed);

  void Pretrain(const nn::Dataset& data);
  void FineTune(const nn::Dataset& data);

  double Score(const CameraProposal& proposal) const;
  std::vector<geometry::Detection> Detect(const AvSample& sample) const;
  std::vector<geometry::Detection> DetectForEval(
      const AvSample& sample) const;
  double SampleConfidence(const AvSample& sample) const;

 private:
  std::vector<geometry::Detection> DetectWithThreshold(
      const AvSample& sample, double threshold) const;

  CameraDetectorConfig config_;
  common::Rng train_rng_;
  nn::Mlp model_;
};

/// Scaled-down analogue of the paper's NuScenes setup (Appendix C).
struct AvPipelineConfig {
  AvWorldConfig world;
  CameraDetectorConfig detector;
  AvAssertionConfig assertions;
  std::size_t pool_scenes = 10;
  std::size_t test_scenes = 4;
  std::size_t pretrain_positives = 400;
  std::size_t pretrain_negatives = 600;
  std::uint64_t world_seed = 37;
};

/// The NuScenes-like active-learning problem (improves the camera model;
/// the LIDAR model stays fixed, as in the paper).
class AvPipeline final : public bandit::ActiveLearningProblem {
 public:
  explicit AvPipeline(AvPipelineConfig config);

  // --- bandit::ActiveLearningProblem ---
  std::size_t PoolSize() const override { return pool_.size(); }
  core::SeverityMatrix ComputeSeverities() override;
  std::vector<double> Confidences() override;
  void LabelAndTrain(std::span<const std::size_t> indices) override;
  double Evaluate() override;
  void Reset(std::uint64_t seed) override;

  // --- direct access ---
  const AvPipelineConfig& config() const { return config_; }
  const std::vector<AvSample>& pool() const { return pool_; }
  CameraDetector& detector() { return *detector_; }
  AvSuite& suite() { return suite_; }
  const nn::Dataset& pretrain_set() const { return pretrain_set_; }

  std::vector<AvExample> MakeExamples(
      std::span<const AvSample> samples) const;
  double EvaluateMap(std::span<const AvSample> samples) const;

 private:
  AvPipelineConfig config_;
  AvWorld world_;
  std::vector<AvSample> pool_;
  std::vector<AvSample> test_;
  nn::Dataset pretrain_set_;
  std::unique_ptr<CameraDetector> detector_;
  AvSuite suite_;
  nn::Dataset labeled_;
};

/// §5.5 AV protocol: the custom weak-supervision rule imputes 2D boxes from
/// the fixed LIDAR model's 3D predictions wherever the camera missed them,
/// fine-tunes the camera model on those weak labels only, and compares mAP.
video::WeakSupervisionResult RunAvWeakSupervision(AvPipeline& pipeline,
                                                  std::size_t max_samples,
                                                  std::uint64_t seed);

/// Table 3 precision for `agree` and `multibox` over the pool. `agree`
/// firings are correct when either sensor's model was wrong (camera false
/// positive/negative under 2D matching, or LIDAR ghost / oversize / miss
/// under 3D center-distance matching).
std::vector<video::AssertionPrecisionSample> MeasureAvAssertionPrecision(
    AvPipeline& pipeline, std::size_t sample_size, std::uint64_t seed);

}  // namespace omg::av
