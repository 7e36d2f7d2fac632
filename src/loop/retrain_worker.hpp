// Background fine-tuning with hot-swapped publishes.
//
// Labeled batches from the RoundScheduler accumulate into one weighted
// training set after the replay rows (weak labels keep their down-weights
// next to full-weight human labels, as §5.5 prescribes); a dedicated worker
// thread clones the registry's current model, fine-tunes the clone on that
// set in place, and publishes the result as a new version. Serving never
// blocks: streams keep scoring with the old handle until they pick up the
// new one between batches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "loop/model_registry.hpp"
#include "nn/trainer.hpp"
#include "obs/tracer.hpp"

namespace omg::loop {

/// RetrainWorker parameters.
struct RetrainConfig {
  /// Fine-tune hyper-parameters (domains pass their finetune_sgd here).
  nn::SgdConfig sgd{0.02, 0.9, 1e-4, 32, 8};
  /// Weight at which the replay dataset (typically the pretraining set) is
  /// mixed into every fine-tune so new labels shift the model without
  /// erasing it; <= 0 disables replay even when a replay set was given.
  double replay_weight = 0.5;
  std::uint64_t seed = 42;
  /// Invoked on the worker thread when a fine-tune begins (instrumentation;
  /// tests use it to pin down hot-swap interleavings).
  std::function<void()> on_retrain_start;
  /// Optional trace sink: each fine-tune emits a `retrain` span on the
  /// control lane (begin: accumulated rows; end: published version, 0 when
  /// the fine-tune threw).
  std::shared_ptr<obs::Tracer> tracer;
};

/// Accumulates labeled data and retrains on a background thread.
///
/// Submit() never blocks on training. Consecutive submissions arriving while
/// a fine-tune is in flight coalesce into the next one. All public methods
/// are thread-safe.
class RetrainWorker {
 public:
  /// `registry` must already hold a published model (the pretrained one);
  /// every fine-tune starts from the registry's current version. `replay`
  /// must fit that model (nn::CheckFits).
  RetrainWorker(RetrainConfig config, std::shared_ptr<ModelRegistry> registry,
                nn::Dataset replay = {});

  /// Drains pending work (finishing any in-flight fine-tune) and joins.
  ~RetrainWorker();

  RetrainWorker(const RetrainWorker&) = delete;
  RetrainWorker& operator=(const RetrainWorker&) = delete;

  /// Enqueues one round's labeled rows; wakes the worker.
  void Submit(nn::Dataset labeled);

  /// Blocks until every submitted batch has been trained and published.
  void WaitIdle();

  /// Completed fine-tune/publish cycles.
  std::size_t retrains() const;

  /// Rows in the accumulated labeled dataset (excludes replay).
  std::size_t accumulated_rows() const;

  /// Messages from rejected batches and from fine-tunes that threw. A
  /// submitted batch that does not fit the served model (nn::CheckFits) is
  /// recorded here once and dropped; it never joins the accumulated labels,
  /// so later batches still train and publish.
  std::vector<std::string> Errors() const;

 private:
  void Run();

  RetrainConfig config_;
  std::shared_ptr<ModelRegistry> registry_;
  /// What every fine-tune trains on: the replay rows scaled by
  /// replay_weight, then each accepted batch's rows in arrival order, each
  /// row appended once. Only the worker thread touches it once the
  /// constructor has filled the replay rows.
  nn::Dataset training_set_;

  mutable Mutex mutex_;
  CondVar work_cv_;
  CondVar idle_cv_;
  std::vector<nn::Dataset> pending_ OMG_GUARDED_BY(mutex_);
  std::size_t accumulated_rows_ OMG_GUARDED_BY(mutex_) = 0;
  bool training_ OMG_GUARDED_BY(mutex_) = false;
  bool stop_ OMG_GUARDED_BY(mutex_) = false;
  std::size_t retrains_ OMG_GUARDED_BY(mutex_) = 0;
  std::vector<std::string> errors_ OMG_GUARDED_BY(mutex_);

  std::thread worker_;  // declared last: joined before state dies
};

}  // namespace omg::loop
