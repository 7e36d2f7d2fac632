#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"

namespace omg::nn {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.At(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(Matrix, BoundsChecked) {
  Matrix m(2, 3);
  EXPECT_THROW(m.At(2, 0), common::CheckError);
  EXPECT_THROW(m.At(0, 3), common::CheckError);
}

TEST(Matrix, DataSizeValidated) {
  EXPECT_THROW(Matrix(2, 2, {1.0, 2.0, 3.0}), common::CheckError);
}

TEST(Matrix, MatMulHandComputed) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 154.0);
}

TEST(Matrix, MatMulShapeChecked) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a.MatMul(b), common::CheckError);
}

TEST(Softmax, SumsToOneAndOrders) {
  const auto p = Softmax(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(Softmax, StableUnderLargeLogits) {
  const auto p = Softmax(std::vector<double>{1000.0, 1001.0});
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  EXPECT_GT(p[1], p[0]);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(Softmax, InvariantToShift) {
  const auto a = Softmax(std::vector<double>{1.0, 2.0});
  const auto b = Softmax(std::vector<double>{101.0, 102.0});
  EXPECT_NEAR(a[0], b[0], 1e-12);
}

TEST(Mlp, PredictProbaIsDistribution) {
  common::Rng rng(3);
  Mlp mlp(MlpConfig{4, {8}, 3}, rng);
  const std::vector<double> x = {0.1, -0.2, 0.3, 0.4};
  const auto p = mlp.PredictProba(x);
  ASSERT_EQ(p.size(), 3u);
  double sum = 0.0;
  for (const double v : p) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Mlp, ConfidenceIsMaxProba) {
  common::Rng rng(3);
  Mlp mlp(MlpConfig{4, {8}, 3}, rng);
  const std::vector<double> x = {0.1, -0.2, 0.3, 0.4};
  const auto p = mlp.PredictProba(x);
  EXPECT_DOUBLE_EQ(mlp.Confidence(x),
                   *std::max_element(p.begin(), p.end()));
  EXPECT_EQ(mlp.Predict(x),
            static_cast<std::size_t>(
                std::max_element(p.begin(), p.end()) - p.begin()));
}

TEST(Mlp, ParameterCount) {
  common::Rng rng(3);
  Mlp mlp(MlpConfig{4, {8}, 3}, rng);
  // 4*8 + 8 + 8*3 + 3 = 67
  EXPECT_EQ(mlp.ParameterCount(), 67u);
}

TEST(Mlp, RejectsBadConfig) {
  common::Rng rng(3);
  EXPECT_THROW(Mlp(MlpConfig{0, {}, 2}, rng), common::CheckError);
  EXPECT_THROW(Mlp(MlpConfig{4, {}, 1}, rng), common::CheckError);
  EXPECT_THROW(Mlp(MlpConfig{4, {8, 0}, 2}, rng), common::CheckError);
}

TEST(Mlp, InputDimChecked) {
  common::Rng rng(3);
  Mlp mlp(MlpConfig{4, {}, 2}, rng);
  EXPECT_THROW(mlp.PredictProba(std::vector<double>{1.0, 2.0}),
               common::CheckError);
}

// Gradient check: compare the trainer's analytic gradient step against a
// finite-difference estimate of the loss gradient.
TEST(Trainer, GradientMatchesFiniteDifferences) {
  common::Rng rng(5);
  Mlp mlp(MlpConfig{3, {5}, 2}, rng);
  Dataset data;
  common::Rng data_rng(6);
  for (int i = 0; i < 8; ++i) {
    data.Add({data_rng.Normal(), data_rng.Normal(), data_rng.Normal()},
             static_cast<std::size_t>(i % 2));
  }
  SgdConfig sgd;
  sgd.learning_rate = 1.0;  // step = -gradient exactly (momentum 0, l2 0)
  sgd.momentum = 0.0;
  sgd.l2 = 0.0;
  sgd.batch_size = data.size();
  sgd.epochs = 1;

  // Analytic gradient = (weights_before - weights_after) / lr.
  Mlp stepped = mlp;
  SoftmaxTrainer trainer(sgd);
  common::Rng train_rng(7);
  trainer.Train(stepped, data, train_rng);

  SoftmaxTrainer loss_eval(sgd);
  const double eps = 1e-6;
  int checked = 0;
  for (std::size_t l = 0; l < mlp.weights().size(); ++l) {
    for (std::size_t idx = 0; idx < std::min<std::size_t>(
                                  mlp.weights()[l].size(), 4);
         ++idx) {
      Mlp plus = mlp, minus = mlp;
      plus.weights()[l].Data()[idx] += eps;
      minus.weights()[l].Data()[idx] -= eps;
      const double fd = (loss_eval.Loss(plus, data) -
                         loss_eval.Loss(minus, data)) /
                        (2.0 * eps);
      const double analytic =
          mlp.weights()[l].Data()[idx] - stepped.weights()[l].Data()[idx];
      EXPECT_NEAR(analytic, fd, 1e-4)
          << "layer " << l << " index " << idx;
      ++checked;
    }
  }
  EXPECT_GE(checked, 8);
}

TEST(Trainer, LearnsLinearlySeparableData) {
  common::Rng rng(8);
  Mlp mlp(MlpConfig{2, {}, 2}, rng);
  Dataset data;
  common::Rng data_rng(9);
  for (int i = 0; i < 200; ++i) {
    const double x = data_rng.Normal();
    const double y = data_rng.Normal();
    data.Add({x + (i % 2 ? 2.0 : -2.0), y}, static_cast<std::size_t>(i % 2));
  }
  SoftmaxTrainer trainer(SgdConfig{0.1, 0.9, 1e-4, 16, 30});
  common::Rng train_rng(10);
  trainer.Train(mlp, data, train_rng);
  EXPECT_GT(Accuracy(mlp, data), 0.95);
}

TEST(Trainer, LearnsXorWithHiddenLayer) {
  common::Rng rng(12);
  Mlp mlp(MlpConfig{2, {12}, 2}, rng);
  Dataset data;
  common::Rng data_rng(13);
  for (int i = 0; i < 400; ++i) {
    const double x = data_rng.Uniform(-1.0, 1.0);
    const double y = data_rng.Uniform(-1.0, 1.0);
    data.Add({x, y}, (x > 0.0) == (y > 0.0) ? 1u : 0u);
  }
  SoftmaxTrainer trainer(SgdConfig{0.1, 0.9, 1e-5, 16, 120});
  common::Rng train_rng(14);
  trainer.Train(mlp, data, train_rng);
  EXPECT_GT(Accuracy(mlp, data), 0.9);
}

TEST(Trainer, TrainingReducesLoss) {
  common::Rng rng(15);
  Mlp mlp(MlpConfig{3, {8}, 3}, rng);
  Dataset data;
  common::Rng data_rng(16);
  for (int i = 0; i < 150; ++i) {
    const auto label = static_cast<std::size_t>(i % 3);
    data.Add({data_rng.Normal(label == 0 ? 2.0 : -1.0, 0.5),
              data_rng.Normal(label == 1 ? 2.0 : -1.0, 0.5),
              data_rng.Normal(label == 2 ? 2.0 : -1.0, 0.5)},
             label);
  }
  SoftmaxTrainer trainer(SgdConfig{0.05, 0.9, 1e-4, 16, 20});
  const double before = trainer.Loss(mlp, data);
  common::Rng train_rng(17);
  trainer.Train(mlp, data, train_rng);
  const double after = trainer.Loss(mlp, data);
  EXPECT_LT(after, before * 0.5);
}

TEST(Trainer, WeightedExamplesDominate) {
  // Two contradictory labelings of the same point: the heavier one wins.
  common::Rng rng(18);
  Mlp mlp(MlpConfig{1, {}, 2}, rng);
  Dataset data;
  data.Add({1.0}, 0, 0.05);
  data.Add({1.0}, 1, 1.0);
  SoftmaxTrainer trainer(SgdConfig{0.2, 0.0, 0.0, 2, 200});
  common::Rng train_rng(19);
  trainer.Train(mlp, data, train_rng);
  EXPECT_EQ(mlp.Predict(std::vector<double>{1.0}), 1u);
}

TEST(Trainer, EmptyDatasetIsNoOp) {
  common::Rng rng(20);
  Mlp mlp(MlpConfig{2, {}, 2}, rng);
  SoftmaxTrainer trainer(SgdConfig{});
  common::Rng train_rng(21);
  EXPECT_DOUBLE_EQ(trainer.Train(mlp, Dataset{}, train_rng), 0.0);
}

TEST(Dataset, AppendPreservesWeights) {
  Dataset a;
  a.Add({1.0}, 0);
  Dataset b;
  b.Add({2.0}, 1, 0.5);
  a.Append(b);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(a.weights.size(), 2u);
  EXPECT_DOUBLE_EQ(a.weights[0], 1.0);
  EXPECT_DOUBLE_EQ(a.weights[1], 0.5);
}

TEST(Dataset, UnweightedStaysCompact) {
  Dataset a;
  a.Add({1.0}, 0);
  a.Add({2.0}, 1);
  EXPECT_TRUE(a.weights.empty());
}

TEST(Trainer, DeterministicGivenSeeds) {
  auto run = [] {
    common::Rng rng(22);
    Mlp mlp(MlpConfig{2, {4}, 2}, rng);
    Dataset data;
    common::Rng data_rng(23);
    for (int i = 0; i < 50; ++i) {
      data.Add({data_rng.Normal(), data_rng.Normal()},
               static_cast<std::size_t>(i % 2));
    }
    SoftmaxTrainer trainer(SgdConfig{0.05, 0.9, 1e-4, 8, 5});
    common::Rng train_rng(24);
    return trainer.Train(mlp, data, train_rng);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Trainer, RejectsWeightsOfTheWrongLength) {
  common::Rng rng(25);
  Mlp mlp(MlpConfig{2, {}, 2}, rng);
  Dataset data;
  data.Add({1.0, 0.0}, 0, 0.5);
  data.Add({0.0, 1.0}, 1);
  data.Add({1.0, 1.0}, 1);
  data.weights.pop_back();  // two weights for three rows
  SoftmaxTrainer trainer(SgdConfig{});
  common::Rng train_rng(26);
  EXPECT_THROW(trainer.Train(mlp, data, train_rng), common::CheckError);
  EXPECT_THROW(trainer.Loss(mlp, data), common::CheckError);
  data.weights.assign(4, 1.0);  // four weights for three rows
  EXPECT_THROW(trainer.Train(mlp, data, train_rng), common::CheckError);
  EXPECT_THROW(trainer.Loss(mlp, data), common::CheckError);
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.Data().data(), b.Data().data(),
                     a.size() * sizeof(double)) == 0;
}

bool SameBits(const Mlp& a, const Mlp& b) {
  if (a.weights().size() != b.weights().size()) return false;
  for (std::size_t l = 0; l < a.weights().size(); ++l) {
    if (!SameBits(a.weights()[l], b.weights()[l]) ||
        !SameBits(a.biases()[l], b.biases()[l])) {
      return false;
    }
  }
  return true;
}

// Train checks every row before its first step: a bad row anywhere, even
// the last, leaves the model exactly as it was.
TEST(Trainer, BadRowLeavesTheModelUntouched) {
  common::Rng rng(27);
  const Mlp before(MlpConfig{2, {4}, 2}, rng);
  for (int bad = 0; bad < 2; ++bad) {
    Dataset data;
    common::Rng data_rng(28);
    for (int i = 0; i < 100; ++i) {
      data.Add({data_rng.Normal(), data_rng.Normal()},
               static_cast<std::size_t>(i % 2));
    }
    if (bad == 0) {
      data.Add({1.0, 2.0, 3.0}, 0);  // one input too many
    } else {
      data.Add({1.0, 2.0}, 2);  // no class 2 in a two-class model
    }
    Mlp mlp = before;
    SoftmaxTrainer trainer(SgdConfig{0.05, 0.9, 1e-4, 8, 3});
    common::Rng train_rng(29);
    EXPECT_THROW(trainer.Train(mlp, data, train_rng), common::CheckError);
    EXPECT_TRUE(SameBits(mlp, before)) << "bad row kind " << bad;
  }
}

// ---------------------------------------------- reference training step ---
// SoftmaxTrainer's step before its workspace kernels: a Matrix pipeline that
// allocated every intermediate. It is kept here, with the Matrix products
// only it used, as the oracle the trainer must match bit for bit.

/// transpose(a) * b, summing over ascending rows and skipping zeros of a.
Matrix ReferenceTransposedMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const auto a_row = a.Row(k);
    const auto b_row = b.Row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double x = a_row[i];
      if (x == 0.0) continue;
      auto o_row = out.Row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) o_row[j] += x * b_row[j];
    }
  }
  return out;
}

/// a * transpose(b), summing over ascending columns.
Matrix ReferenceMatMulTransposed(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto a_row = a.Row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const auto b_row = b.Row(j);
      double sum = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += a_row[k] * b_row[k];
      out.At(i, j) = sum;
    }
  }
  return out;
}

/// a += scale * b.
void ReferenceAddScaled(Matrix& a, const Matrix& b, double scale) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.Data()[i] += scale * b.Data()[i];
  }
}

class ReferenceTrainer {
 public:
  explicit ReferenceTrainer(SgdConfig config) : config_(config) {}

  double Train(Mlp& model, const Dataset& data, common::Rng& rng) {
    if (data.empty()) return 0.0;
    if (weight_velocity_.size() != model.weights().size()) {
      weight_velocity_.clear();
      bias_velocity_.clear();
      for (const auto& w : model.weights()) {
        weight_velocity_.emplace_back(w.rows(), w.cols());
      }
      for (const auto& b : model.biases()) {
        bias_velocity_.emplace_back(b.rows(), b.cols());
      }
    }
    std::vector<std::size_t> order(data.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    double last_epoch_loss = 0.0;
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
      rng.Shuffle(order);
      double epoch_loss = 0.0;
      for (std::size_t start = 0; start < order.size();
           start += config_.batch_size) {
        const std::size_t end =
            std::min(start + config_.batch_size, order.size());
        epoch_loss += Step(model, data,
                           std::span<const std::size_t>(order).subspan(
                               start, end - start));
      }
      last_epoch_loss = epoch_loss / static_cast<double>(data.size());
    }
    return last_epoch_loss;
  }

 private:
  static Matrix Forward(const Mlp& model, const Matrix& x,
                        std::vector<Matrix>& activations) {
    Matrix h = x;
    activations.clear();
    for (std::size_t l = 0; l < model.weights().size(); ++l) {
      Matrix z = h.MatMul(model.weights()[l]);
      for (std::size_t r = 0; r < z.rows(); ++r) {
        auto row = z.Row(r);
        const auto bias = model.biases()[l].Row(0);
        for (std::size_t c = 0; c < row.size(); ++c) row[c] += bias[c];
      }
      if (l + 1 < model.weights().size()) {
        for (double& v : z.Data()) v = std::max(0.0, v);  // ReLU
      }
      activations.push_back(z);
      h = std::move(z);
    }
    return h;
  }

  double Step(Mlp& model, const Dataset& data,
              std::span<const std::size_t> batch) {
    const std::size_t n = batch.size();
    const std::size_t num_classes = model.config().num_classes;

    Matrix x(n, model.config().input_dim);
    for (std::size_t r = 0; r < n; ++r) {
      const auto& f = data.features[batch[r]];
      std::copy(f.begin(), f.end(), x.Row(r).begin());
    }

    std::vector<Matrix> activations;
    Matrix logits = Forward(model, x, activations);
    Matrix proba = logits;
    SoftmaxRows(proba);

    double batch_loss = 0.0;
    Matrix dlogits(n, num_classes);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t label = data.labels[batch[r]];
      const double w = data.weights.empty() ? 1.0 : data.weights[batch[r]];
      const auto p = proba.Row(r);
      batch_loss += -w * std::log(std::max(p[label], 1e-12));
      auto d = dlogits.Row(r);
      for (std::size_t c = 0; c < num_classes; ++c) {
        d[c] = w * (p[c] - (c == label ? 1.0 : 0.0)) /
               static_cast<double>(n);
      }
    }

    const auto& weights = model.weights();
    std::vector<Matrix> grad_w(weights.size());
    std::vector<Matrix> grad_b(weights.size());
    Matrix delta = std::move(dlogits);
    for (std::size_t l = weights.size(); l-- > 0;) {
      const Matrix& input = (l == 0) ? x : activations[l - 1];
      grad_w[l] = ReferenceTransposedMatMul(input, delta);
      grad_b[l] = Matrix(1, delta.cols());
      for (std::size_t r = 0; r < delta.rows(); ++r) {
        const auto d = delta.Row(r);
        auto g = grad_b[l].Row(0);
        for (std::size_t c = 0; c < d.size(); ++c) g[c] += d[c];
      }
      if (l > 0) {
        Matrix next = ReferenceMatMulTransposed(delta, weights[l]);
        const Matrix& act = activations[l - 1];
        for (std::size_t i = 0; i < next.size(); ++i) {
          if (act.Data()[i] <= 0.0) next.Data()[i] = 0.0;
        }
        delta = std::move(next);
      }
    }

    for (std::size_t l = 0; l < weights.size(); ++l) {
      ReferenceAddScaled(grad_w[l], model.weights()[l], config_.l2);
      ReferenceAddScaled(weight_velocity_[l], weight_velocity_[l],
                         config_.momentum - 1.0);
      ReferenceAddScaled(weight_velocity_[l], grad_w[l],
                         -config_.learning_rate);
      ReferenceAddScaled(model.weights()[l], weight_velocity_[l], 1.0);

      ReferenceAddScaled(bias_velocity_[l], bias_velocity_[l],
                         config_.momentum - 1.0);
      ReferenceAddScaled(bias_velocity_[l], grad_b[l],
                         -config_.learning_rate);
      ReferenceAddScaled(model.biases()[l], bias_velocity_[l], 1.0);
    }
    return batch_loss;
  }

  SgdConfig config_;
  std::vector<Matrix> weight_velocity_;
  std::vector<Matrix> bias_velocity_;
};

// A seeded sweep of shapes, batch sizes (dividing N or not, above N), exact
// zero inputs, weighted and unweighted rows, and a second Train call on the
// same trainer (velocities reused): weights, biases and both returned
// losses must equal the reference step's bit for bit.
TEST(Trainer, MatchesTheReferenceStepBitForBit) {
  common::Rng sweep(2026);
  for (int config = 0; config < 200; ++config) {
    MlpConfig shape;
    shape.input_dim = static_cast<std::size_t>(sweep.UniformInt(1, 12));
    const std::int64_t hidden_layers = sweep.UniformInt(0, 2);
    for (std::int64_t h = 0; h < hidden_layers; ++h) {
      shape.hidden.push_back(static_cast<std::size_t>(sweep.UniformInt(1, 30)));
    }
    shape.num_classes = static_cast<std::size_t>(sweep.UniformInt(2, 5));
    SgdConfig sgd;
    sgd.learning_rate = sweep.Uniform(0.01, 0.3);
    sgd.momentum = sweep.Uniform(0.0, 0.95);
    sgd.l2 = sweep.Bernoulli(0.2) ? 0.0 : sweep.Uniform(0.0, 1e-3);
    sgd.batch_size = static_cast<std::size_t>(sweep.UniformInt(1, 64));
    sgd.epochs = static_cast<std::size_t>(sweep.UniformInt(1, 3));

    const bool weighted = config % 2 == 1;
    const auto rows = static_cast<std::size_t>(sweep.UniformInt(1, 100));
    Dataset data;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<double> f(shape.input_dim);
      for (double& v : f) v = sweep.Bernoulli(0.2) ? 0.0 : sweep.Normal();
      const auto label = static_cast<std::size_t>(sweep.UniformInt(
          0, static_cast<std::int64_t>(shape.num_classes) - 1));
      data.Add(std::move(f), label,
               weighted ? sweep.Uniform(0.05, 2.0) : 1.0);
    }

    const Mlp initial(shape, sweep);
    Mlp actual = initial;
    Mlp expected = initial;
    SoftmaxTrainer trainer(sgd);
    ReferenceTrainer reference(sgd);
    const std::uint64_t train_seed = sweep();
    for (std::uint64_t call = 0; call < 2; ++call) {
      common::Rng actual_rng(train_seed + call);
      common::Rng expected_rng(train_seed + call);
      const double loss = trainer.Train(actual, data, actual_rng);
      const double expected_loss =
          reference.Train(expected, data, expected_rng);
      EXPECT_EQ(std::memcmp(&loss, &expected_loss, sizeof loss), 0)
          << "config " << config << " call " << call << ": " << loss
          << " vs " << expected_loss;
    }
    ASSERT_TRUE(SameBits(actual, expected))
        << "config " << config << ": input " << shape.input_dim << ", "
        << shape.hidden.size() << " hidden, " << shape.num_classes
        << " classes, batch " << sgd.batch_size << ", " << rows << " rows";
  }
}

bool AllFinite(const Mlp& model) {
  for (std::size_t l = 0; l < model.weights().size(); ++l) {
    for (const Matrix* m : {&model.weights()[l], &model.biases()[l]}) {
      for (const double v : m->Data()) {
        if (!std::isfinite(v)) return false;
      }
    }
  }
  return true;
}

// What the finite sweep above cannot reach. The trainer adds the product
// of a zero input where Matrix::MatMul skips it, so the two steps part once
// a weight or delta is infinite or NaN; the contract is that the trained
// parameters then end non-finite on both sides. Each input trains both
// side by side: their parameters end finite together, and whenever they
// are finite they match bit for bit, losses included.
TEST(Trainer, EndsNonFiniteExactlyWhenTheReferenceDoes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  enum Input { kInfWeight, kNanWeight, kInfFeature, kHugeRate, kInputs };
  const char* const names[] = {"+inf weight on a zero column",
                               "NaN weight on a zero column",
                               "+inf feature", "overflowing learning rate"};
  for (const MlpConfig& shape : {MlpConfig{4, {6}, 3}, MlpConfig{4, {}, 3}}) {
    for (int input = 0; input < kInputs; ++input) {
      common::Rng rng(33);
      Dataset data;
      for (std::size_t r = 0; r < 40; ++r) {
        data.Add({rng.Normal(), rng.Normal(), 0.0, rng.Normal()}, r % 3,
                 rng.Uniform(0.5, 1.5));
      }
      Mlp initial(shape, rng);
      SgdConfig sgd{0.05, 0.9, 1e-4, 8, 3};
      switch (input) {
        case kInfWeight:  // column 2 is zero in every row
          initial.weights()[0].At(2, 1) = kInf;
          break;
        case kNanWeight:
          initial.weights()[0].At(2, 1) =
              std::numeric_limits<double>::quiet_NaN();
          break;
        case kInfFeature:
          data.features[7][1] = kInf;
          break;
        case kHugeRate:
          sgd.learning_rate = 1e300;
          break;
      }
      Mlp actual = initial;
      Mlp expected = initial;
      SoftmaxTrainer trainer(sgd);
      ReferenceTrainer reference(sgd);
      common::Rng actual_rng(34);
      common::Rng expected_rng(34);
      const double loss = trainer.Train(actual, data, actual_rng);
      const double expected_loss =
          reference.Train(expected, data, expected_rng);
      const std::string where = std::string(names[input]) + ", " +
                                std::to_string(shape.hidden.size()) +
                                " hidden";
      // Each input does reach the non-finite path.
      EXPECT_FALSE(AllFinite(expected)) << where;
      ASSERT_EQ(AllFinite(actual), AllFinite(expected)) << where;
      if (AllFinite(actual)) {
        EXPECT_EQ(std::memcmp(&loss, &expected_loss, sizeof loss), 0)
            << where;
        EXPECT_TRUE(SameBits(actual, expected)) << where;
      }
    }
  }
}

// Parameterized sweep: accuracy improves monotonically (statistically) with
// more data on a fixed separable task.
class TrainerDataScaling : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrainerDataScaling, MoreDataNoWorse) {
  const std::size_t n = GetParam();
  common::Rng rng(30);
  Mlp mlp(MlpConfig{2, {8}, 2}, rng);
  Dataset train, test;
  common::Rng data_rng(31);
  auto sample = [&](Dataset& d, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto label = static_cast<std::size_t>(i % 2);
      d.Add({data_rng.Normal(label ? 1.0 : -1.0, 1.0),
             data_rng.Normal(label ? 1.0 : -1.0, 1.0)},
            label);
    }
  };
  sample(train, n);
  sample(test, 400);
  SoftmaxTrainer trainer(SgdConfig{0.05, 0.9, 1e-4, 16, 25});
  common::Rng train_rng(32);
  trainer.Train(mlp, train, train_rng);
  // Even the smallest budget should beat chance clearly; larger budgets
  // should approach the Bayes-ish rate on this task.
  EXPECT_GT(Accuracy(mlp, test), n >= 200 ? 0.80 : 0.65);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TrainerDataScaling,
                         ::testing::Values(50, 200, 800));

}  // namespace
}  // namespace omg::nn
