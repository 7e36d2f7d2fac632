// End-to-end night-street pipeline: world + detector + assertions, wired as
// an active-learning problem (Figure 4a / 9a), a weak-supervision experiment
// (Table 4), a high-confidence-error analysis (Figure 3) and an assertion
// precision measurement (Table 3).
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bandit/active_learning.hpp"
#include "core/severity_matrix.hpp"
#include "video/assertions.hpp"
#include "video/detector.hpp"
#include "video/world.hpp"

namespace omg::video {

/// Scaled-down analogue of the paper's setup (§5.1 and Appendix C): one
/// "day" of video split into an unlabeled pool and a held-out test day.
struct VideoPipelineConfig {
  WorldConfig world;
  DetectorConfig detector;
  VideoAssertionConfig assertions;
  std::size_t pool_frames = 400;
  std::size_t test_frames = 150;
  std::size_t pretrain_positives = 500;
  std::size_t pretrain_negatives = 700;
  /// Seed for the *data* (fixed across trials; trials vary model seeds).
  std::uint64_t world_seed = 42;
};

/// The night-street active-learning problem.
class VideoPipeline final : public bandit::ActiveLearningProblem {
 public:
  explicit VideoPipeline(VideoPipelineConfig config);

  // --- bandit::ActiveLearningProblem ---
  std::size_t PoolSize() const override { return pool_.size(); }
  core::SeverityMatrix ComputeSeverities() override;
  std::vector<double> Confidences() override;
  void LabelAndTrain(std::span<const std::size_t> indices) override;
  double Evaluate() override;
  void Reset(std::uint64_t seed) override;

  // --- direct access for experiments ---
  const VideoPipelineConfig& config() const { return config_; }
  const std::vector<Frame>& pool() const { return pool_; }
  SsdDetector& detector() { return *detector_; }
  VideoSuite& suite() { return suite_; }
  const nn::Dataset& pretrain_set() const { return pretrain_set_; }

  /// Runs the current detector over `frames` and packages the deployed
  /// outputs for the assertion layer.
  std::vector<VideoExample> MakeExamples(
      std::span<const Frame> frames) const;

  /// mAP of the current detector over `frames`.
  double EvaluateMap(std::span<const Frame> frames) const;

 private:
  VideoPipelineConfig config_;
  NightStreetWorld world_;
  std::vector<Frame> pool_;
  std::vector<Frame> test_;
  nn::Dataset pretrain_set_;
  std::unique_ptr<SsdDetector> detector_;
  VideoSuite suite_;
  nn::Dataset labeled_;
};

/// Result of the weak-supervision experiment (§5.5).
struct WeakSupervisionResult {
  double pretrained_metric = 0.0;
  double weakly_supervised_metric = 0.0;
  std::size_t weak_positives = 0;
  std::size_t weak_negatives = 0;
  std::size_t flagged_frames_used = 0;
  std::size_t random_frames_used = 0;

  double RelativeImprovement() const {
    return pretrained_metric > 0.0
               ? (weakly_supervised_metric - pretrained_metric) /
                     pretrained_metric
               : 0.0;
  }
};

/// Counts of weak labels materialised by MakeWeakLabelDataset.
struct WeakLabelCounts {
  std::size_t positives = 0;
  std::size_t negatives = 0;
};

/// Materialises the §5.5 WeakLabel rules over one scored stream: every
/// consistency correction touching a `chosen` frame becomes a training row —
/// a flicker gap imputes a positive by averaging the track's adjacent boxes
/// and marking the best-IoU proposal; a brief appearance marks the removed
/// detection's proposal negative. `examples` must be `frames`' deployed
/// outputs, index-aligned. Shared by the offline weak-supervision
/// experiment and the online loop's WeakLabelOracle.
nn::Dataset MakeWeakLabelDataset(VideoSuite& suite,
                                 std::span<const Frame> frames,
                                 std::span<const VideoExample> examples,
                                 const std::set<std::size_t>& chosen,
                                 WeakLabelCounts* counts = nullptr);

/// §5.5 video protocol: starting from the pretrained model, take
/// `flicker_frames` frames that triggered flicker plus `random_frames`
/// random frames, convert the consistency corrections on them into weak
/// labels (flicker gaps -> imputed positive boxes via the WeakLabel rule of
/// averaging nearby occurrences; brief appearances -> removals, i.e.
/// negatives), fine-tune on the weak labels only, and compare test mAP.
WeakSupervisionResult RunVideoWeakSupervision(VideoPipeline& pipeline,
                                              std::size_t flicker_frames,
                                              std::size_t random_frames,
                                              std::uint64_t seed);

/// One assertion's top-K errors ranked by model confidence, each expressed
/// as a percentile of confidence among all deployed detections (Figure 3).
struct HighConfidenceErrors {
  std::string assertion;
  std::vector<double> percentiles;  ///< descending, size <= top_k
};

/// Figure 3 analysis over the pipeline's pool with the current model.
/// For box errors (multibox/appear) the confidence is the erroneous box's
/// own confidence; for flicker (a missing box) it is the mean confidence of
/// the adjacent occurrences of the same track, as in the paper.
std::vector<HighConfidenceErrors> AnalyzeHighConfidenceErrors(
    VideoPipeline& pipeline, std::size_t top_k);

/// Precision of one assertion measured as in Table 3: sample up to
/// `sample_size` firings and check against simulator ground truth.
struct AssertionPrecisionSample {
  std::string assertion;
  std::size_t sampled = 0;
  /// Firings where the ML model's output was genuinely wrong.
  std::size_t correct_model_output = 0;
  /// Firings where the model output *or* the identification function
  /// (the tracker) was wrong — the laxer column of Table 3.
  std::size_t correct_with_identifier = 0;
};

std::vector<AssertionPrecisionSample> MeasureVideoAssertionPrecision(
    VideoPipeline& pipeline, std::size_t sample_size, std::uint64_t seed);

}  // namespace omg::video
