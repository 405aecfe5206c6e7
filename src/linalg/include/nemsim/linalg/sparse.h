// Compressed-sparse-row matrices.
//
// Two flavours: the immutable triplet-built SparseMatrix (exports, ad-hoc
// solves, Gauss-Seidel for diagonally-dominant systems) and CsrMatrix, a
// square pattern-frozen matrix with mutable values — the MNA engine's
// reusable Jacobian storage.  The engine assembles every Newton
// Jacobian into a CsrMatrix and factors it with SparseLuFactorization
// (sparse_lu.h, DESIGN.md decision #4).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "nemsim/linalg/matrix.h"

namespace nemsim::linalg {

/// One (row, col, value) coordinate entry.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// Immutable CSR matrix; duplicate triplets are summed (stamp semantics).
class SparseMatrix {
 public:
  SparseMatrix(std::size_t rows, std::size_t cols,
               std::vector<Triplet> triplets);

  /// Converts a dense matrix, dropping exact zeros.
  static SparseMatrix from_dense(const Matrix& dense);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// Entry lookup (zero when not stored).
  double at(std::size_t row, std::size_t col) const;

  Vector multiply(const Vector& x) const;
  Matrix to_dense() const;

  /// Gauss-Seidel iteration for A x = b; returns the iterate after
  /// convergence (relative residual < tol) or throws ConvergenceError.
  Vector gauss_seidel(const Vector& b, double tol = 1e-10,
                      int max_iterations = 10000) const;

  /// Direct sparse LU solve (row-map Gaussian elimination with partial
  /// pivoting; fill-in tracked per row), analysing the pattern on every
  /// call.  One-off solves only: repeated solves on one pattern belong to
  /// SparseLuFactorization, which caches the analysis.
  Vector lu_solve(const Vector& b) const;

  // Raw CSR access (read-only), e.g. for SparseLuFactorization.
  const std::vector<std::size_t>& row_start() const { return row_start_; }
  const std::vector<std::size_t>& col_index() const { return col_index_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> row_start_;  // size rows_+1
  std::vector<std::size_t> col_index_;
  std::vector<double> values_;
};

/// Square CSR matrix with a frozen sparsity pattern and mutable values.
///
/// Built once from the set of structurally-possible (row, col) positions;
/// afterwards assembly is "zero_values(), then add into slots" with no
/// allocation.  Entries outside the pattern report `npos` from slot() so
/// callers can detect and grow the pattern.
class CsrMatrix {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  CsrMatrix() = default;
  /// `entries` are (row, col) positions; duplicates are merged and each
  /// row's columns are sorted.  All values start at zero.
  CsrMatrix(std::size_t n,
            std::vector<std::pair<std::size_t, std::size_t>> entries);

  std::size_t size() const { return n_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// Index into values() of entry (row, col); npos when not in the pattern.
  std::size_t slot(std::size_t row, std::size_t col) const;

  void zero_values();
  /// Entry lookup (zero when not stored).
  double at(std::size_t row, std::size_t col) const;

  std::vector<double>& values() { return values_; }
  const std::vector<double>& values() const { return values_; }
  const std::vector<std::size_t>& row_start() const { return row_start_; }
  const std::vector<std::size_t>& col_index() const { return col_index_; }

  Vector multiply(const Vector& x) const;
  Matrix to_dense() const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_start_;  // size n_+1
  std::vector<std::size_t> col_index_;
  std::vector<double> values_;
};

}  // namespace nemsim::linalg
