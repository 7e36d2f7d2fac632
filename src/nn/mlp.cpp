#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace omg::nn {

using common::Check;

Mlp::Mlp(const MlpConfig& config, common::Rng& rng) : config_(config) {
  Check(config.input_dim > 0, "Mlp input_dim must be positive");
  Check(config.num_classes >= 2, "Mlp needs at least two classes");
  for (const std::size_t width : config.hidden) {
    Check(width > 0, "Mlp hidden layer widths must be positive");
  }
  std::vector<std::size_t> dims;
  dims.push_back(config.input_dim);
  dims.insert(dims.end(), config.hidden.begin(), config.hidden.end());
  dims.push_back(config.num_classes);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const std::size_t fan_in = dims[l];
    const std::size_t fan_out = dims[l + 1];
    Matrix w(fan_in, fan_out);
    const double scale =
        std::sqrt(2.0 / static_cast<double>(fan_in + fan_out));
    for (double& v : w.Data()) v = rng.Normal(0.0, scale);
    weights_.push_back(std::move(w));
    biases_.emplace_back(1, fan_out);
  }
}

Matrix Mlp::Logits(const Matrix& x) const {
  Check(x.cols() == config_.input_dim, "Mlp input dimension mismatch");
  Matrix h = x;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    Matrix z = h.MatMul(weights_[l]);
    for (std::size_t r = 0; r < z.rows(); ++r) {
      auto row = z.Row(r);
      const auto bias = biases_[l].Row(0);
      for (std::size_t c = 0; c < row.size(); ++c) row[c] += bias[c];
    }
    const bool is_output = (l + 1 == weights_.size());
    if (!is_output) {
      for (double& v : z.Data()) v = std::max(0.0, v);  // ReLU
    }
    h = std::move(z);
  }
  return h;
}

std::vector<double> Mlp::PredictProba(std::span<const double> x) const {
  Matrix row(1, x.size(), std::vector<double>(x.begin(), x.end()));
  Matrix logits = Logits(row);
  return Softmax(logits.Row(0));
}

std::size_t Mlp::Predict(std::span<const double> x) const {
  const auto proba = PredictProba(x);
  return static_cast<std::size_t>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

double Mlp::Confidence(std::span<const double> x) const {
  const auto proba = PredictProba(x);
  return *std::max_element(proba.begin(), proba.end());
}

std::size_t Mlp::ParameterCount() const {
  std::size_t count = 0;
  for (const auto& w : weights_) count += w.size();
  for (const auto& b : biases_) count += b.size();
  return count;
}

void SoftmaxRows(Matrix& logits) {
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    auto row = logits.Row(r);
    const double max_logit = *std::max_element(row.begin(), row.end());
    double sum = 0.0;
    for (double& v : row) {
      v = std::exp(v - max_logit);
      sum += v;
    }
    for (double& v : row) v /= sum;
  }
}

std::vector<double> Softmax(std::span<const double> logits) {
  Check(!logits.empty(), "Softmax of empty vector");
  Matrix row(1, logits.size(),
             std::vector<double>(logits.begin(), logits.end()));
  SoftmaxRows(row);
  const auto out = row.Row(0);
  return std::vector<double>(out.begin(), out.end());
}

}  // namespace omg::nn
