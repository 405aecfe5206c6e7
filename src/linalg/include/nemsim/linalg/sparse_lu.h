// Reusable sparse LU: symbolic analysis cached, numeric-only refactor.
//
// The MNA Newton loop solves a long sequence of systems that share one
// sparsity pattern and change only in their values.  factor() runs the
// full partial-pivot elimination once and freezes everything that is
// value-independent: the pivot (row) order, the filled-in L+U pattern, a
// scatter map from the input matrix's nonzeros into L+U slots, and the
// flattened multiply-add schedule of the elimination itself.  refactor()
// then replays that schedule on new values — no maps, no allocation, no
// pivot search — and solve() reuses the triangles for many right-hand
// sides.  When a frozen pivot no longer dominates its column (some
// multiplier |L(i,k)| exceeds 1/kRefactorTau), refactor() returns false
// and the caller re-runs factor() to re-pivot.  The engine's pattern
// never changes under a solver (it is fixed with the system's kernel
// plan, nemsim/spice/engine.h), so re-pivoting is the only reason the
// analysis is redone.
#pragma once

#include <cstddef>
#include <vector>

#include "nemsim/linalg/matrix.h"
#include "nemsim/linalg/sparse.h"

namespace nemsim::linalg {

/// Non-owning view of a square CSR matrix.
struct CsrView {
  std::size_t n = 0;
  const std::size_t* row_start = nullptr;
  const std::size_t* col_index = nullptr;
  const double* values = nullptr;
};

inline CsrView csr_view(const CsrMatrix& a) {
  return {a.size(), a.row_start().data(), a.col_index().data(),
          a.values().data()};
}

class SparseLuFactorization {
 public:
  /// factor()'s threshold pivoting accepts any candidate within this
  /// factor of its column maximum, so every multiplier it creates obeys
  /// |L(i,k)| <= 1/kPivotAlpha = 10.
  static constexpr double kPivotAlpha = 0.1;
  /// refactor() keeps the frozen order while every multiplier obeys
  /// |L(i,k)| <= 1/kRefactorTau = 1000: the same column-wise criterion,
  /// 100x looser.  Comparing entries of one column makes the test
  /// invariant to how the unknowns are scaled (volts, metres, m/s), and
  /// it bounds element growth.
  static constexpr double kRefactorTau = 1e-3;
  /// rejected_row() when the last refactor() rejected no pivot.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  SparseLuFactorization() = default;

  /// Full factorization: symbolic analysis (pivot order + fill pattern +
  /// elimination schedule) and numeric values.  Throws SingularMatrixError
  /// when a pivot column has no usable entry.
  void factor(const CsrView& a);
  void factor(const CsrMatrix& a) { factor(csr_view(a)); }

  /// Numeric-only refactorization reusing the cached symbolic analysis.
  /// `a` must have the same pattern factor() saw.  Returns false when a
  /// pivot is zero or creates a multiplier |a_ik / pivot| > 1/kRefactorTau
  /// (rejected_row() names it), or when the pattern differs — the caller
  /// should fall back to factor() for a fresh pivot order.
  bool refactor(const CsrView& a);
  bool refactor(const CsrMatrix& a) { return refactor(csr_view(a)); }

  bool analyzed() const { return n_ > 0; }
  std::size_t size() const { return n_; }
  /// Nonzeros of L+U (pattern nonzeros plus fill-in).
  std::size_t fill_nonzeros() const { return vals_.size(); }
  /// Original row index of the pivot that made the last refactor() fail;
  /// npos after a successful refactor() or a pattern mismatch.
  std::size_t rejected_row() const { return rejected_row_; }
  /// Largest |L(i,k)| of the current factorization.
  double max_multiplier() const;

  /// Solves A x = b with the current numeric factorization.
  Vector solve(const Vector& b) const;
  void solve_in_place(Vector& x) const;
  /// Same, with the pivot-order intermediate in caller-owned `scratch`
  /// (resized to size(); no allocation once it has that size).
  void solve_in_place(Vector& x, Vector& scratch) const;

 private:
  bool run_schedule();

  std::size_t n_ = 0;
  // Fill-reducing symmetric preorder (minimum degree on the pattern of
  // A + A^T): elimination step k works on original index col_perm_[k].
  std::vector<std::size_t> col_perm_;
  // L+U rows stored in pivot order; columns sorted ascending.  Slots with
  // column < k (the row's pivot step) hold L factors, the rest U values.
  std::vector<std::size_t> row_ptr_;  // size n_+1
  std::vector<std::size_t> cols_;
  std::vector<double> vals_;
  std::vector<std::size_t> diag_;      // slot of U(k, k)
  std::vector<std::size_t> orig_row_;  // pivot position -> original row
  // Input nonzero i (CSR order) scatters into slot scatter_[i].
  std::vector<std::size_t> scatter_;
  std::size_t input_nnz_ = 0;
  // Elimination schedule.  For step k, targets_[col_ptr_[k]..col_ptr_[k+1])
  // are the rows below the pivot with a structural entry in column k; each
  // target's op_start indexes op_tgt_, which maps the pivot row's U tail
  // (slots diag_[k]+1 .. row_ptr_[k+1]) onto slots of the target row.
  struct Target {
    std::size_t l_slot;
    std::size_t op_start;
  };
  std::vector<std::size_t> col_ptr_;  // size n_+1
  std::vector<Target> targets_;
  std::vector<std::size_t> op_tgt_;
  std::size_t rejected_row_ = npos;
};

}  // namespace nemsim::linalg
