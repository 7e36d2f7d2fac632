// Dense row-major matrix used by the neural-network substrate.
//
// This is deliberately a small, double-precision, single-threaded matrix:
// the models in this reproduction are tiny (tens of units), and double
// precision keeps training bit-reproducible across platforms.
//
// A Matrix holds an Mlp's weights and biases, and MatMul serves inference
// (Mlp::Logits). Training does not multiply Matrix objects: SoftmaxTrainer
// runs its own kernels over a workspace (nn/trainer.hpp). Those kernels
// keep MatMul's arithmetic, which is the bit-identity contract between the
// two: each output sums its products from 0.0 over ascending k, and a zero
// entry of the left operand adds nothing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace omg::nn {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, zero-initialised.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix with the given (row-major) contents.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  double& At(std::size_t r, std::size_t c);

  /// View of row `r`.
  std::span<double> Row(std::size_t r);
  std::span<const double> Row(std::size_t r) const;

  /// Raw storage (row-major).
  std::span<double> Data() { return data_; }
  std::span<const double> Data() const { return data_; }

  /// Returns this * other. Requires cols() == other.rows().
  Matrix MatMul(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace omg::nn
