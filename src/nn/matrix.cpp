#include "nn/matrix.hpp"

#include "common/check.hpp"

namespace omg::nn {

using common::Check;
using common::CheckIndex;

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  Check(data_.size() == rows_ * cols_, "Matrix data size mismatch");
}

double& Matrix::At(std::size_t r, std::size_t c) {
  CheckIndex(static_cast<std::ptrdiff_t>(r), 0,
             static_cast<std::ptrdiff_t>(rows_), "Matrix row");
  CheckIndex(static_cast<std::ptrdiff_t>(c), 0,
             static_cast<std::ptrdiff_t>(cols_), "Matrix col");
  return data_[r * cols_ + c];
}

std::span<double> Matrix::Row(std::size_t r) {
  CheckIndex(static_cast<std::ptrdiff_t>(r), 0,
             static_cast<std::ptrdiff_t>(rows_), "Matrix row");
  return std::span<double>(data_).subspan(r * cols_, cols_);
}

std::span<const double> Matrix::Row(std::size_t r) const {
  CheckIndex(static_cast<std::ptrdiff_t>(r), 0,
             static_cast<std::ptrdiff_t>(rows_), "Matrix row");
  return std::span<const double>(data_).subspan(r * cols_, cols_);
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Check(cols_ == other.rows_, "MatMul inner-dimension mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[i * cols_ + k];
      if (a == 0.0) continue;
      const double* b_row = &other.data_[k * other.cols_];
      double* o_row = &out.data_[i * other.cols_];
      for (std::size_t j = 0; j < other.cols_; ++j) o_row[j] += a * b_row[j];
    }
  }
  return out;
}

}  // namespace omg::nn
