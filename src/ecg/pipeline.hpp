// ECG pipeline: generator + classifier + the 30 s assertion, wired for
// single-assertion active learning (Figure 5), weak supervision (Table 4)
// and precision measurement (Table 3).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bandit/active_learning.hpp"
#include "ecg/ecg.hpp"
#include "video/pipeline.hpp"  // WeakSupervisionResult, AssertionPrecisionSample

namespace omg::ecg {

/// Scaled-down analogue of the paper's CINC17 splits (Appendix C).
struct EcgPipelineConfig {
  EcgConfig generator;
  EcgClassifierConfig classifier;
  std::size_t pool_records = 60;
  std::size_t test_records = 25;
  std::size_t pretrain_windows = 700;
  double temporal_threshold = 30.0;
  std::uint64_t world_seed = 7;
};

/// Active-learning problem over ECG windows with the single ECG assertion.
class EcgPipeline final : public bandit::ActiveLearningProblem {
 public:
  explicit EcgPipeline(EcgPipelineConfig config);

  // --- bandit::ActiveLearningProblem ---
  std::size_t PoolSize() const override { return pool_.size(); }
  core::SeverityMatrix ComputeSeverities() override;
  std::vector<double> Confidences() override;
  void LabelAndTrain(std::span<const std::size_t> indices) override;
  double Evaluate() override;
  void Reset(std::uint64_t seed) override;

  // --- direct access ---
  const EcgPipelineConfig& config() const { return config_; }
  const std::vector<EcgWindow>& pool() const { return pool_; }
  EcgClassifier& classifier() { return *classifier_; }
  EcgSuite& suite() { return suite_; }
  const nn::Dataset& pretrain_set() const { return pretrain_set_; }

  /// Current predictions over `windows`, packaged for the assertion layer.
  std::vector<EcgExample> MakeExamples(
      std::span<const EcgWindow> windows) const;

  /// Classification accuracy over `windows`.
  double EvaluateAccuracy(std::span<const EcgWindow> windows) const;

 private:
  EcgPipelineConfig config_;
  EcgGenerator generator_;
  std::vector<EcgWindow> pool_;
  std::vector<EcgWindow> test_;
  nn::Dataset pretrain_set_;
  std::unique_ptr<EcgClassifier> classifier_;
  EcgSuite suite_;
  nn::Dataset labeled_;
};

/// §5.5 ECG protocol: windows inside flagged brief episodes get the
/// neighbouring episode's class as a weak label (the "most common value"
/// correction); fine-tune on up to `max_weak_labels` of them and compare
/// test accuracy.
video::WeakSupervisionResult RunEcgWeakSupervision(
    EcgPipeline& pipeline, std::size_t max_weak_labels, std::uint64_t seed);

/// Table 3 precision: a firing counts as correct when some window within
/// the temporal threshold of the flagged window is misclassified (a brief
/// predicted episode always sits on a real model error in this protocol —
/// either the episode windows or their neighbours are wrong, since true
/// rhythms never change twice within 30 s).
std::vector<video::AssertionPrecisionSample> MeasureEcgAssertionPrecision(
    EcgPipeline& pipeline, std::size_t sample_size, std::uint64_t seed);

}  // namespace omg::ecg
