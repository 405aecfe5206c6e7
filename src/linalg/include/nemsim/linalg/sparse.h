// Compressed-sparse-row matrix: CsrMatrix, a square pattern-frozen
// matrix with mutable values — the MNA engine's reusable Jacobian
// storage.  The engine assembles every Newton Jacobian into a CsrMatrix
// over a pattern fixed when its kernel plan is built, and factors it
// with SparseLuFactorization (sparse_lu.h, DESIGN.md decision #4).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "nemsim/linalg/matrix.h"

namespace nemsim::linalg {

/// Sorts the (row, col) cells of an n-row pattern by row, then column,
/// and drops duplicates, in place: a counting sort by row, then a sort of
/// each row's few columns.  Linear in the cells for circuit patterns,
/// where one comparison sort of all of them is not.  Throws
/// InvalidArgument on a cell outside the n × n square.
void sort_unique_cells(std::size_t n,
                       std::vector<std::pair<std::size_t, std::size_t>>& cells);

/// Square CSR matrix with a frozen sparsity pattern and mutable values.
///
/// Built once from the set of structurally-possible (row, col) positions;
/// afterwards assembly is "zero_values(), then add into slots" with no
/// allocation.  Entries outside the pattern report `npos` from slot().
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
