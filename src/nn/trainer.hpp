// Minibatch SGD training for Mlp with softmax cross-entropy loss.
//
// Supports per-example weights so weak labels (§5.5 of the paper) can be
// down-weighted relative to human labels.
//
// Workspace. Train checks every row of the dataset before its first step,
// so a dataset it rejects leaves the model untouched. It then sizes one
// workspace for the model and the batch size; each step gathers its
// minibatch straight from `Dataset::features` into it and allocates
// nothing (tests/test_alloc_counts.cpp counts). Activations and
// back-propagated deltas are held feature-major (one row per unit, the
// batch along the row), so the forward pass and the delta run the batch
// innermost. The weight gradient reads each layer's inputs held batch-major
// and runs the inputs innermost. The forward pass and the weight gradient
// keep each block of sums in registers for the whole sum and store it
// once. No inner loop runs over a narrow layer, such as the 2-wide output
// of a detector.
//
// Bit identity. A step yields the same weights, biases and losses, bit for
// bit, as the reference step in tests/test_nn.cpp, a pipeline of Matrix
// products, on every run whose trained parameters end finite; and it ends
// with a non-finite parameter exactly when the reference does
// (Trainer.MatchesTheReferenceStepBitForBit and
// Trainer.EndsNonFiniteExactlyWhenTheReferenceDoes check both). Every sum
// starts from +0.0 and adds its terms in the reference order: ascending
// input (or row, for the gradients), the bias after. The update is one
// pass applying g + l2*w, v + (m-1)*v, v + (-lr)*g and w + 1.0*v in that
// order. Unlike Matrix::MatMul, the kernels do not skip an input of exactly
// zero:
//   - A zero input adds ±0.0. That leaves a sum that started at +0.0
//     unchanged whenever the weight (forward) or delta (gradient) is
//     finite, since such a sum can never become -0.0 under round-to-nearest.
//   - Where that weight or delta is infinite or NaN, the product is NaN and
//     the two steps part. But once a weight or bias is non-finite, the
//     update never makes it finite again; and a non-finite delta makes its
//     layer's bias gradient non-finite, and so the bias, in the same step.
//   - So a run whose parameters end finite never met such a product.
// All this needs a compiler that neither reassociates nor contracts a*b + c
// into a fused multiply-add. g++ contracts by default in every C++ mode
// (-ffp-contract=fast) once the target has FMA, and clang (on) within an
// expression, so the build passes -ffp-contract=off; nothing enables
// -ffast-math.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/mlp.hpp"

namespace omg::nn {

/// A labeled classification dataset: one feature row per example.
struct Dataset {
  std::vector<std::vector<double>> features;
  std::vector<std::size_t> labels;
  /// Optional per-example weights; empty means all 1.0.
  std::vector<double> weights;

  std::size_t size() const { return features.size(); }
  bool empty() const { return features.empty(); }

  /// Appends one example.
  void Add(std::vector<double> feature, std::size_t label,
           double weight = 1.0);

  /// Appends all examples of `other`.
  void Append(const Dataset& other);
};

/// Hyper-parameters for SGD with momentum.
struct SgdConfig {
  double learning_rate = 0.05;
  double momentum = 0.9;
  double l2 = 1e-4;
  std::size_t batch_size = 32;
  std::size_t epochs = 10;
};

/// Trains an Mlp in place and reports the loss trajectory.
class SoftmaxTrainer {
 public:
  explicit SoftmaxTrainer(SgdConfig config);

  /// Runs `config.epochs` passes over `data`, shuffling each epoch with
  /// `rng`. Returns the mean weighted cross-entropy of the final epoch.
  /// Throws common::CheckError, before any update, unless `data` fits
  /// `model` (CheckFits).
  double Train(Mlp& model, const Dataset& data, common::Rng& rng);

  /// Mean weighted cross-entropy of `model` on `data` (no update). Throws
  /// common::CheckError unless `data` fits `model`.
  double Loss(const Mlp& model, const Dataset& data) const;

 private:
  /// One layer's slice of the workspace.
  struct LayerBuffers {
    std::size_t fan_in = 0;
    std::size_t fan_out = 0;
    /// fan_in rounded up to whole register blocks.
    std::size_t fan_in_padded = 0;
    /// The layer's input, batch-major: row r at r * fan_in_padded.
    std::vector<double> input_by_row;
    /// The layer's output after its activation, feature-major: unit j at
    /// j * row_stride_ (the last layer's output holds the logits).
    std::vector<double> output;
    /// Weight gradient, shaped like the weights.
    std::vector<double> weight_grad;
    std::vector<double> bias_grad;
    /// Momentum, shaped like the weights and the biases.
    std::vector<double> weight_velocity;
    std::vector<double> bias_velocity;
  };

  /// Sizes the workspace for `model` and batches of up to `rows` rows.
  /// Velocities persist across calls while the layer shapes stay the same.
  void SizeWorkspace(const Mlp& model, std::size_t rows);

  /// One gradient step on the rows indexed by `batch`. Returns the summed
  /// weighted cross-entropy over the batch, or 0 unless `with_loss` (only
  /// the final epoch's loss is reported).
  double Step(Mlp& model, const Dataset& data,
              std::span<const std::size_t> batch, bool with_loss);

  SgdConfig config_;
  std::vector<LayerBuffers> layers_;
  /// Rows per feature-major buffer: the largest batch, rounded up to whole
  /// register blocks.
  std::size_t row_stride_ = 0;
  /// The minibatch's features, feature-major.
  std::vector<double> input_;
  /// Back-propagated deltas, feature-major: the current layer's and the
  /// one below it.
  std::vector<double> delta_;
  std::vector<double> delta_below_;
};

/// Throws common::CheckError unless every row of `data` fits a model of
/// `shape`: one label per feature row, no weights or one per row, rows
/// `shape.input_dim` wide, and labels below `shape.num_classes`.
void CheckFits(const MlpConfig& shape, const Dataset& data);

/// Classification accuracy of `model` on `data` (unweighted).
double Accuracy(const Mlp& model, const Dataset& data);

}  // namespace omg::nn
