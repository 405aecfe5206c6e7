#include "nemsim/linalg/sparse.h"

#include <algorithm>
#include <cassert>

#include "nemsim/util/error.h"

namespace nemsim::linalg {

CsrMatrix::CsrMatrix(std::size_t n,
                     std::vector<std::pair<std::size_t, std::size_t>> entries)
    : n_(n) {
  for (const auto& [r, c] : entries) {
    require(r < n && c < n, "CsrMatrix: entry out of range");
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  row_start_.assign(n_ + 1, 0);
  col_index_.reserve(entries.size());
  for (const auto& [r, c] : entries) {
    col_index_.push_back(c);
    ++row_start_[r + 1];
  }
  for (std::size_t r = 0; r < n_; ++r) row_start_[r + 1] += row_start_[r];
  values_.assign(col_index_.size(), 0.0);
}

std::size_t CsrMatrix::slot(std::size_t row, std::size_t col) const {
  assert(row < n_ && col < n_);
  const std::size_t* first = col_index_.data() + row_start_[row];
  const std::size_t* last = col_index_.data() + row_start_[row + 1];
  const std::size_t* it = std::lower_bound(first, last, col);
  if (it != last && *it == col) {
    return static_cast<std::size_t>(it - col_index_.data());
  }
  return npos;
}

void CsrMatrix::zero_values() {
  std::fill(values_.begin(), values_.end(), 0.0);
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  require(row < n_ && col < n_, "CsrMatrix::at: out of range");
  const std::size_t s = slot(row, col);
  return s == npos ? 0.0 : values_[s];
}

Vector CsrMatrix::multiply(const Vector& x) const {
  require(x.size() == n_, "CsrMatrix::multiply: shape mismatch");
  Vector y(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    double sum = 0.0;
    for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      sum += values_[k] * x[col_index_[k]];
    }
    y[r] = sum;
  }
  return y;
}

Matrix CsrMatrix::to_dense() const {
  Matrix out(n_, n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      out(r, col_index_[k]) = values_[k];
    }
  }
  return out;
}

}  // namespace nemsim::linalg
