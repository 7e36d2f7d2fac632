#include "loop/retrain_worker.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace omg::loop {

using common::Check;

RetrainWorker::RetrainWorker(RetrainConfig config,
                             std::shared_ptr<ModelRegistry> registry,
                             nn::Dataset replay)
    : config_(std::move(config)), registry_(std::move(registry)) {
  Check(registry_ != nullptr, "retrain worker needs a registry");
  Check(registry_->version() >= 1,
        "registry must hold the pretrained model before retraining starts");
  nn::CheckFits(registry_->Current().model->config(), replay);
  if (config_.replay_weight > 0.0) {
    for (std::size_t i = 0; i < replay.size(); ++i) {
      const double weight =
          replay.weights.empty() ? 1.0 : replay.weights[i];
      training_set_.Add(std::move(replay.features[i]), replay.labels[i],
                        weight * config_.replay_weight);
    }
  }
  worker_ = std::thread([this] { Run(); });
}

RetrainWorker::~RetrainWorker() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  worker_.join();
}

void RetrainWorker::Submit(nn::Dataset labeled) {
  Check(!labeled.empty(), "submitted label batch is empty");
  {
    MutexLock lock(mutex_);
    pending_.push_back(std::move(labeled));
  }
  work_cv_.NotifyOne();
}

void RetrainWorker::WaitIdle() {
  MutexLock lock(mutex_);
  while (!pending_.empty() || training_) idle_cv_.Wait(mutex_);
}

std::size_t RetrainWorker::retrains() const {
  MutexLock lock(mutex_);
  return retrains_;
}

std::size_t RetrainWorker::accumulated_rows() const {
  MutexLock lock(mutex_);
  return accumulated_rows_;
}

std::vector<std::string> RetrainWorker::Errors() const {
  MutexLock lock(mutex_);
  return errors_;
}

void RetrainWorker::Run() {
  common::Rng rng(config_.seed);
  for (;;) {
    std::vector<nn::Dataset> batches;
    {
      MutexLock lock(mutex_);
      while (!stop_ && pending_.empty()) work_cv_.Wait(mutex_);
      if (pending_.empty()) break;  // stop_ with nothing left to train
      batches.swap(pending_);
      training_ = true;
    }

    // Clone the currently served model; the fine-tune below updates the
    // clone, and serving keeps reading the old handle until the publish.
    nn::Mlp model = *registry_->Current().model;
    // A batch that does not fit the model would fail this fine-tune and
    // every later one: reject it here, once, and keep the rest.
    std::size_t accepted_rows = 0;
    std::vector<std::string> rejected;
    for (nn::Dataset& batch : batches) {
      try {
        nn::CheckFits(model.config(), batch);
      } catch (const common::CheckError& error) {
        rejected.push_back(std::string("label batch rejected: ") +
                           error.what());
        continue;
      }
      accepted_rows += batch.size();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        training_set_.Add(std::move(batch.features[i]), batch.labels[i],
                          batch.weights.empty() ? 1.0 : batch.weights[i]);
      }
    }
    const bool accepted = accepted_rows > 0;  // Submit takes no empty batch
    std::size_t accumulated = 0;
    {
      MutexLock lock(mutex_);
      accumulated_rows_ += accepted_rows;
      accumulated = accumulated_rows_;
      errors_.insert(errors_.end(), rejected.begin(), rejected.end());
      if (!accepted) training_ = false;
    }
    if (!accepted) {
      idle_cv_.NotifyAll();
      continue;
    }
    if (config_.on_retrain_start) config_.on_retrain_start();
    if (config_.tracer != nullptr) {
      config_.tracer->EmitControl(obs::TraceEventKind::kRetrain,
                                  obs::TracePhase::kBegin,
                                  obs::TraceEvent::kNoStream, accumulated);
    }
    std::uint64_t published_version = 0;

    // A throwing fine-tune must not escape the thread: record it and keep
    // the worker alive.
    try {
      nn::SoftmaxTrainer trainer(config_.sgd);
      trainer.Train(model, training_set_, rng);
      published_version = registry_->Publish(std::move(model));
      MutexLock lock(mutex_);
      training_ = false;
      ++retrains_;
    } catch (const std::exception& error) {
      MutexLock lock(mutex_);
      training_ = false;
      errors_.push_back(error.what());
    }
    if (config_.tracer != nullptr) {
      config_.tracer->EmitControl(obs::TraceEventKind::kRetrain,
                                  obs::TracePhase::kEnd,
                                  obs::TraceEvent::kNoStream, accumulated,
                                  published_version);
    }
    idle_cv_.NotifyAll();
  }
}

}  // namespace omg::loop
