#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/check.hpp"

namespace omg::nn {

using common::Check;

namespace {

// Two doubles: the vector width of every x86-64 and AArch64 target, so the
// kernels below need no ISA flag and no dispatch. A kernel keeps kBlock
// rows (or inputs) in kVecs of them. Each `sum += x * w` must round the
// product before the add; the build's -ffp-contract=off keeps the compiler
// from fusing them (trainer.hpp, "Bit identity").
typedef double Vec __attribute__((vector_size(16)));
typedef std::int64_t Bits __attribute__((vector_size(16)));
constexpr std::size_t kBlock = 8;
constexpr std::size_t kVecs = kBlock / 2;
/// Outputs whose sums a kernel holds at once: kGroup * kVecs sums, the
/// kVecs inputs and one splatted factor fill 13 of SSE2's 16 registers.
constexpr std::size_t kGroup = 2;

std::size_t RoundUpToBlock(std::size_t n) {
  return (n + kBlock - 1) / kBlock * kBlock;
}

Vec Load(const double* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void Store(double* p, Vec v) { std::memcpy(p, &v, sizeof v); }

Vec Splat(double x) { return Vec{x, x}; }

/// `v` in the lanes where `keep` is all ones, +0.0 in the others: a select
/// written as a bitwise and, which g++ and clang both accept.
Vec Keep(Vec v, Bits keep) { return (Vec)((Bits)v & keep); }

/// Outputs j..j+G-1 of DenseForward for the kBlock rows from r. The
/// G * kBlock sums stay in registers for the whole pass over the inputs,
/// and each result is stored once.
template <std::size_t G>
void DenseForwardGroup(const double* in, std::size_t stride, std::size_t r,
                       std::size_t fan_in, const double* w,
                       std::size_t fan_out, std::size_t j, const double* b,
                       bool relu, double* out, double* out_by_row,
                       std::size_t out_row_stride) {
  Vec sum[G][kVecs] = {};
  for (std::size_t k = 0; k < fan_in; ++k) {
    const double* x = in + k * stride + r;
    const Vec x0 = Load(x), x1 = Load(x + 2), x2 = Load(x + 4),
              x3 = Load(x + 6);
    for (std::size_t g = 0; g < G; ++g) {
      const Vec wg = Splat(w[k * fan_out + j + g]);
      sum[g][0] += x0 * wg;
      sum[g][1] += x1 * wg;
      sum[g][2] += x2 * wg;
      sum[g][3] += x3 * wg;
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    const Vec bg = Splat(b[j + g]);
    for (std::size_t q = 0; q < kVecs; ++q) {
      Vec z = sum[g][q] + bg;
      if (relu) z = Keep(z, (Bits)(z > Vec{}));
      Store(out + (j + g) * stride + r + 2 * q, z);
      if (out_by_row == nullptr) continue;
      out_by_row[(r + 2 * q) * out_row_stride + j + g] = z[0];
      out_by_row[(r + 2 * q + 1) * out_row_stride + j + g] = z[1];
    }
  }
}

/// One dense layer over `rows` rows (a multiple of kBlock), with `in` and
/// `out` feature-major at `stride`: out[j][r] is the sum over ascending k,
/// from +0.0, of in[k][r] * w[k][j], plus b[j], clamped to +0.0 unless
/// positive (std::max(0.0, z)) when `relu`. When `out_by_row` is non-null
/// it receives the outputs batch-major too, row r at r * out_row_stride.
void DenseForward(const double* in, std::size_t stride, std::size_t rows,
                  const Matrix& weights, const Matrix& bias, bool relu,
                  double* out, double* out_by_row,
                  std::size_t out_row_stride) {
  const std::size_t fan_in = weights.rows();
  const std::size_t fan_out = weights.cols();
  const double* w = weights.Data().data();
  const double* b = bias.Data().data();
  for (std::size_t r = 0; r < rows; r += kBlock) {
    std::size_t j = 0;
    for (; j + kGroup <= fan_out; j += kGroup) {
      DenseForwardGroup<kGroup>(in, stride, r, fan_in, w, fan_out, j, b,
                                relu, out, out_by_row, out_row_stride);
    }
    for (; j < fan_out; ++j) {
      DenseForwardGroup<1>(in, stride, r, fan_in, w, fan_out, j, b, relu,
                           out, out_by_row, out_row_stride);
    }
  }
}

/// Outputs j..j+G-1 of WeightGradient for the kBlock inputs from i, of
/// which the first `inputs` are real. The G * kBlock sums stay in
/// registers for the whole pass over the rows, and each result is stored
/// once. The bias sums ride along; the first block (i == 0) stores them.
template <std::size_t G>
void WeightGradientGroup(const double* in_by_row, std::size_t in_stride,
                         std::size_t i, std::size_t inputs, std::size_t rows,
                         const double* delta, std::size_t delta_stride,
                         std::size_t fan_out, std::size_t j, double* grad,
                         double* bias_grad) {
  Vec sum[G][kVecs] = {};
  double bias[G] = {};
  for (std::size_t r = 0; r < rows; ++r) {
    const double* x = in_by_row + r * in_stride + i;
    const Vec x0 = Load(x), x1 = Load(x + 2), x2 = Load(x + 4),
              x3 = Load(x + 6);
    for (std::size_t g = 0; g < G; ++g) {
      const double d = delta[(j + g) * delta_stride + r];
      bias[g] += d;
      const Vec dg = Splat(d);
      sum[g][0] += x0 * dg;
      sum[g][1] += x1 * dg;
      sum[g][2] += x2 * dg;
      sum[g][3] += x3 * dg;
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    double* column = grad + i * fan_out + j + g;
    for (std::size_t q = 0; q < kVecs; ++q) {
      if (2 * q < inputs) column[2 * q * fan_out] = sum[g][q][0];
      if (2 * q + 1 < inputs) column[(2 * q + 1) * fan_out] = sum[g][q][1];
    }
    if (i == 0) bias_grad[j + g] = bias[g];
  }
}

/// grad[i][j], shaped like the weights (fan_in rows of fan_out), is the sum
/// over ascending r < rows, from +0.0, of in_by_row[r][i] * delta[j][r],
/// and bias_grad[j] the plain sum of delta[j][r]. `in_by_row` holds rows
/// of `in_stride`, fan_in (at least 1, as Mlp checks) rounded up to
/// kBlock; `delta` is feature-major at `delta_stride`.
void WeightGradient(const double* in_by_row, std::size_t in_stride,
                    std::size_t fan_in, std::size_t rows,
                    const double* delta, std::size_t delta_stride,
                    std::size_t fan_out, double* grad, double* bias_grad) {
  for (std::size_t i = 0; i < fan_in; i += kBlock) {
    const std::size_t inputs = std::min(kBlock, fan_in - i);
    std::size_t j = 0;
    for (; j + kGroup <= fan_out; j += kGroup) {
      WeightGradientGroup<kGroup>(in_by_row, in_stride, i, inputs, rows,
                                  delta, delta_stride, fan_out, j, grad,
                                  bias_grad);
    }
    for (; j < fan_out; ++j) {
      WeightGradientGroup<1>(in_by_row, in_stride, i, inputs, rows, delta,
                             delta_stride, fan_out, j, grad, bias_grad);
    }
  }
}

/// below[k][r] is the sum over ascending j, from 0.0, of delta[j][r] *
/// w[k][j], or +0.0 where the activation act[k][r] of the layer below is
/// <= 0 (ReLU's derivative), for `rows` rows (a multiple of kBlock); all
/// three buffers are feature-major at `stride`.
void BackpropDelta(const double* delta, std::size_t stride, std::size_t rows,
                   const Matrix& weights, const double* act, double* below) {
  const std::size_t fan_in = weights.rows();
  const std::size_t fan_out = weights.cols();
  const double* w = weights.Data().data();
  for (std::size_t r = 0; r < rows; r += kBlock) {
    for (std::size_t k = 0; k < fan_in; ++k) {
      Vec s0{}, s1{}, s2{}, s3{};
      for (std::size_t j = 0; j < fan_out; ++j) {
        const double* d = delta + j * stride + r;
        const Vec wj = Splat(w[k * fan_out + j]);
        s0 += Load(d) * wj;
        s1 += Load(d + 2) * wj;
        s2 += Load(d + 4) * wj;
        s3 += Load(d + 6) * wj;
      }
      const double* a = act + k * stride + r;
      double* o = below + k * stride + r;
      Store(o, Keep(s0, ~(Bits)(Load(a) <= Vec{})));
      Store(o + 2, Keep(s1, ~(Bits)(Load(a + 2) <= Vec{})));
      Store(o + 4, Keep(s2, ~(Bits)(Load(a + 4) <= Vec{})));
      Store(o + 6, Keep(s3, ~(Bits)(Load(a + 6) <= Vec{})));
    }
  }
}

}  // namespace

void Dataset::Add(std::vector<double> feature, std::size_t label,
                  double weight) {
  if (weights.empty() && !features.empty() && weight != 1.0) {
    weights.assign(features.size(), 1.0);
  }
  features.push_back(std::move(feature));
  labels.push_back(label);
  if (!weights.empty() || weight != 1.0) {
    if (weights.empty()) weights.assign(features.size() - 1, 1.0);
    weights.push_back(weight);
  }
}

void Dataset::Append(const Dataset& other) {
  for (std::size_t i = 0; i < other.size(); ++i) {
    Add(other.features[i], other.labels[i],
        other.weights.empty() ? 1.0 : other.weights[i]);
  }
}

SoftmaxTrainer::SoftmaxTrainer(SgdConfig config) : config_(config) {
  Check(config_.learning_rate > 0.0, "learning rate must be positive");
  Check(config_.batch_size > 0, "batch size must be positive");
}

double SoftmaxTrainer::Train(Mlp& model, const Dataset& data,
                             common::Rng& rng) {
  if (data.empty()) return 0.0;
  CheckFits(model.config(), data);
  SizeWorkspace(model, std::min(config_.batch_size, data.size()));

  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  double last_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    const bool last_epoch = epoch + 1 == config_.epochs;
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(start + config_.batch_size, order.size());
      epoch_loss += Step(model, data,
                         std::span<const std::size_t>(order).subspan(
                             start, end - start),
                         last_epoch);
    }
    last_epoch_loss = epoch_loss / static_cast<double>(data.size());
  }
  return last_epoch_loss;
}

void SoftmaxTrainer::SizeWorkspace(const Mlp& model, std::size_t rows) {
  const auto& weights = model.weights();
  bool same_shape = layers_.size() == weights.size();
  for (std::size_t l = 0; same_shape && l < weights.size(); ++l) {
    same_shape = layers_[l].fan_in == weights[l].rows() &&
                 layers_[l].fan_out == weights[l].cols();
  }
  if (!same_shape) layers_.assign(weights.size(), LayerBuffers{});

  row_stride_ = RoundUpToBlock(rows);
  std::size_t widest = 0;
  for (std::size_t l = 0; l < weights.size(); ++l) {
    LayerBuffers& layer = layers_[l];
    layer.fan_in = weights[l].rows();
    layer.fan_out = weights[l].cols();
    layer.fan_in_padded = RoundUpToBlock(layer.fan_in);
    layer.input_by_row.assign(row_stride_ * layer.fan_in_padded, 0.0);
    layer.output.assign(layer.fan_out * row_stride_, 0.0);
    layer.weight_grad.assign(weights[l].size(), 0.0);
    layer.bias_grad.assign(layer.fan_out, 0.0);
    if (!same_shape) {
      layer.weight_velocity.assign(weights[l].size(), 0.0);
      layer.bias_velocity.assign(layer.fan_out, 0.0);
    }
    widest = std::max(widest, layer.fan_out);
  }
  input_.assign(model.config().input_dim * row_stride_, 0.0);
  delta_.assign(widest * row_stride_, 0.0);
  delta_below_.assign(widest * row_stride_, 0.0);
}

double SoftmaxTrainer::Step(Mlp& model, const Dataset& data,
                            std::span<const std::size_t> batch,
                            bool with_loss) {
  const std::size_t n = batch.size();
  const std::size_t rows = RoundUpToBlock(n);
  const std::size_t stride = row_stride_;
  const std::size_t input_dim = model.config().input_dim;
  const std::size_t num_classes = model.config().num_classes;
  auto& weights = model.weights();
  auto& biases = model.biases();

  // Gather the minibatch: feature-major for the forward pass, batch-major
  // for the first layer's weight gradient.
  LayerBuffers& first = layers_.front();
  for (std::size_t r = 0; r < n; ++r) {
    const double* f = data.features[batch[r]].data();
    for (std::size_t k = 0; k < input_dim; ++k) {
      input_[k * stride + r] = f[k];
      first.input_by_row[r * first.fan_in_padded + k] = f[k];
    }
  }

  const double* in = input_.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const bool hidden = l + 1 < layers_.size();
    LayerBuffers* next = hidden ? &layers_[l + 1] : nullptr;
    DenseForward(in, stride, rows, weights[l], biases[l], hidden,
                 layers_[l].output.data(),
                 hidden ? next->input_by_row.data() : nullptr,
                 hidden ? next->fan_in_padded : 0);
    in = layers_[l].output.data();
  }

  // Softmax as SoftmaxRows computes it, the summed batch loss, and
  // dL/dlogits = weight * (p - onehot) / n.
  const double* logits = layers_.back().output.data();
  double* delta = delta_.data();
  double batch_loss = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t label = data.labels[batch[r]];
    const double w = data.weights.empty() ? 1.0 : data.weights[batch[r]];
    double max_logit = logits[r];
    for (std::size_t c = 1; c < num_classes; ++c) {
      max_logit = std::max(max_logit, logits[c * stride + r]);
    }
    double sum = 0.0;
    for (std::size_t c = 0; c < num_classes; ++c) {
      const double e = std::exp(logits[c * stride + r] - max_logit);
      delta[c * stride + r] = e;
      sum += e;
    }
    for (std::size_t c = 0; c < num_classes; ++c) {
      const double p = delta[c * stride + r] / sum;
      if (with_loss && c == label) {
        batch_loss += -w * std::log(std::max(p, 1e-12));
      }
      delta[c * stride + r] =
          w * (p - (c == label ? 1.0 : 0.0)) / static_cast<double>(n);
    }
  }

  // Backprop through the dense/ReLU stack; each layer's SGD step (momentum,
  // L2 decay on weights only) follows once its weights have passed the
  // delta down.
  const double decay = config_.momentum - 1.0;  // v + (m-1)*v is m*v
  const double step = -config_.learning_rate;
  const double l2 = config_.l2;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    LayerBuffers& layer = layers_[l];
    WeightGradient(layer.input_by_row.data(), layer.fan_in_padded,
                   layer.fan_in, n, delta_.data(), stride, layer.fan_out,
                   layer.weight_grad.data(), layer.bias_grad.data());
    if (l > 0) {
      BackpropDelta(delta_.data(), stride, rows, weights[l],
                    layers_[l - 1].output.data(), delta_below_.data());
    }

    double* w = weights[l].Data().data();
    double* wv = layer.weight_velocity.data();
    const double* wg = layer.weight_grad.data();
    for (std::size_t at = 0; at < layer.weight_grad.size(); ++at) {
      const double g = wg[at] + l2 * w[at];
      wv[at] = wv[at] + decay * wv[at];
      wv[at] = wv[at] + step * g;
      w[at] = w[at] + 1.0 * wv[at];
    }
    double* b = biases[l].Data().data();
    double* bv = layer.bias_velocity.data();
    const double* bg = layer.bias_grad.data();
    for (std::size_t j = 0; j < layer.fan_out; ++j) {
      bv[j] = bv[j] + decay * bv[j];
      bv[j] = bv[j] + step * bg[j];
      b[j] = b[j] + 1.0 * bv[j];
    }
    std::swap(delta_, delta_below_);
  }
  return batch_loss;
}

double SoftmaxTrainer::Loss(const Mlp& model, const Dataset& data) const {
  if (data.empty()) return 0.0;
  CheckFits(model.config(), data);
  double total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto proba = model.PredictProba(data.features[i]);
    const double w = data.weights.empty() ? 1.0 : data.weights[i];
    total += -w * std::log(std::max(proba[data.labels[i]], 1e-12));
  }
  return total / static_cast<double>(data.size());
}

void CheckFits(const MlpConfig& shape, const Dataset& data) {
  Check(data.features.size() == data.labels.size(),
        "Dataset features/labels size mismatch");
  Check(data.weights.empty() || data.weights.size() == data.size(),
        "Dataset weights/rows size mismatch");
  for (std::size_t i = 0; i < data.size(); ++i) {
    Check(data.features[i].size() == shape.input_dim, "feature dim mismatch");
    Check(data.labels[i] < shape.num_classes, "label out of range");
  }
}

double Accuracy(const Mlp& model, const Dataset& data) {
  if (data.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (model.Predict(data.features[i]) == data.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace omg::nn
