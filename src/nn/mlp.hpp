// Small multi-layer perceptron classifier with softmax output.
//
// This is the trainable-model substrate standing in for the paper's deep
// networks (SSD, Second/PointPillars, the ECG ResNet). The models in this
// reproduction operate on low-dimensional synthetic features, so a two-layer
// MLP trained with SGD reproduces the *training dynamics* the paper relies
// on: accuracy improves with labeled data, and improves fastest on the
// sub-populations the labels come from.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace omg::nn {

/// Architecture of an Mlp.
struct MlpConfig {
  std::size_t input_dim = 0;
  /// Hidden layer widths, each positive; empty means multinomial logistic
  /// regression.
  std::vector<std::size_t> hidden = {};
  std::size_t num_classes = 2;
};

/// Feed-forward network: Dense -> ReLU -> ... -> Dense -> softmax.
class Mlp {
 public:
  /// Initialises weights with Xavier/Glorot scaling from `rng`.
  Mlp(const MlpConfig& config, common::Rng& rng);

  const MlpConfig& config() const { return config_; }

  /// Logits for a batch (rows are examples).
  Matrix Logits(const Matrix& x) const;

  /// Softmax probabilities for a single example.
  std::vector<double> PredictProba(std::span<const double> x) const;

  /// Argmax class for a single example.
  std::size_t Predict(std::span<const double> x) const;

  /// Max softmax probability — the model's confidence in its prediction.
  /// This is the quantity "least confident" uncertainty sampling uses.
  double Confidence(std::span<const double> x) const;

  /// Number of trainable parameters.
  std::size_t ParameterCount() const;

  /// Layer weights/biases (exposed for the optimiser and tests).
  std::vector<Matrix>& weights() { return weights_; }
  std::vector<Matrix>& biases() { return biases_; }
  const std::vector<Matrix>& weights() const { return weights_; }
  const std::vector<Matrix>& biases() const { return biases_; }

 private:
  MlpConfig config_;
  std::vector<Matrix> weights_;  // weights_[l] is (fan_in x fan_out)
  std::vector<Matrix> biases_;   // biases_[l] is (1 x fan_out)
};

/// Numerically stable in-place softmax over each row of `logits`.
void SoftmaxRows(Matrix& logits);

/// Softmax of one logit vector.
std::vector<double> Softmax(std::span<const double> logits);

}  // namespace omg::nn
