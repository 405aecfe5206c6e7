#include "nemsim/linalg/sparse_lu.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "nemsim/util/error.h"

namespace nemsim::linalg {

namespace {

/// Greedy minimum-degree ordering on the undirected graph of A + A^T.
/// Eliminating a vertex turns its neighbourhood into a clique (exactly
/// the fill Gaussian elimination creates), so repeatedly removing the
/// lowest-degree vertex defers the dense rail/clock rows of MNA matrices
/// to the end, where they no longer generate fill.
std::vector<std::size_t> minimum_degree_order(std::size_t n,
                                              const CsrView& a) {
  std::vector<std::set<std::size_t>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = a.row_start[r]; k < a.row_start[r + 1]; ++k) {
      const std::size_t c = a.col_index[k];
      if (c != r) {
        adj[r].insert(c);
        adj[c].insert(r);
      }
    }
  }
  std::vector<char> eliminated(n, 0);
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    std::size_t best_deg = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      const std::size_t deg = adj[v].size();
      if (best == n || deg < best_deg) {
        best = v;
        best_deg = deg;
      }
    }
    order.push_back(best);
    eliminated[best] = 1;
    const std::vector<std::size_t> nbr(adj[best].begin(), adj[best].end());
    for (std::size_t u : nbr) adj[u].erase(best);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      for (std::size_t j = i + 1; j < nbr.size(); ++j) {
        adj[nbr[i]].insert(nbr[j]);
        adj[nbr[j]].insert(nbr[i]);
      }
    }
    adj[best].clear();
  }
  return order;
}

}  // namespace

void SparseLuFactorization::factor(const CsrView& a) {
  require(a.n > 0, "SparseLuFactorization: empty matrix");
  const std::size_t n = a.n;

  // Fill-reducing symmetric preorder: elimination step k works on
  // original row/column col_perm_[k].
  col_perm_ = minimum_degree_order(n, a);
  std::vector<std::size_t> inv(n);
  for (std::size_t k = 0; k < n; ++k) inv[col_perm_[k]] = k;

  // Map-based working rows in the permuted space, keeping the L factors
  // in place (columns < the row's elimination step).
  std::vector<std::map<std::size_t, double>> rows(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = a.row_start[r]; k < a.row_start[r + 1]; ++k) {
      require(a.col_index[k] < n, "SparseLuFactorization: column out of range");
      rows[inv[r]][inv[a.col_index[k]]] += a.values[k];
    }
  }

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Threshold pivoting with a Markowitz-style tie-break: magnitude-only
    // partial pivoting fills circuit matrices badly (supply rails couple
    // many rows), so among the numerically acceptable candidates
    // (|value| >= alpha * column max) take the shortest remaining row —
    // its update touches the fewest columns, which is what creates fill.
    double best_mag = 0.0;
    for (std::size_t r = k; r < n; ++r) {
      auto it = rows[order[r]].find(k);
      if (it != rows[order[r]].end() && std::abs(it->second) > best_mag) {
        best_mag = std::abs(it->second);
      }
    }
    if (best_mag == 0.0) {
      throw SingularMatrixError("sparse LU: singular at column " +
                                std::to_string(k));
    }
    std::size_t best = n;
    std::size_t best_len = 0;
    for (std::size_t r = k; r < n; ++r) {
      auto it = rows[order[r]].find(k);
      if (it == rows[order[r]].end() ||
          std::abs(it->second) < kPivotAlpha * best_mag) {
        continue;
      }
      const std::size_t len = rows[order[r]].size();
      if (best == n || len < best_len) {
        best = r;
        best_len = len;
      }
    }
    std::swap(order[k], order[best]);
    const std::size_t prow = order[k];
    const double pivot = rows[prow].find(k)->second;

    for (std::size_t r = k + 1; r < n; ++r) {
      const std::size_t row = order[r];
      auto it = rows[row].find(k);
      if (it == rows[row].end()) continue;
      const double factor = it->second / pivot;
      it->second = factor;  // keep as the L entry
      for (auto pit = rows[prow].upper_bound(k); pit != rows[prow].end();
           ++pit) {
        rows[row][pit->first] -= factor * pit->second;
      }
    }
  }

  // Freeze the filled-in structure in pivot order.  orig_row_ maps the
  // pivot position back to the ORIGINAL row index (through both the
  // fill-reducing preorder and the numeric row pivoting).
  n_ = n;
  orig_row_.resize(n);
  for (std::size_t k = 0; k < n; ++k) orig_row_[k] = col_perm_[order[k]];
  row_ptr_.assign(n + 1, 0);
  cols_.clear();
  vals_.clear();
  diag_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    for (const auto& [c, v] : rows[order[k]]) {
      if (c == k) diag_[k] = cols_.size();
      cols_.push_back(c);
      vals_.push_back(v);
    }
    row_ptr_[k + 1] = cols_.size();
  }

  // Pivot position of each original row.
  std::vector<std::size_t> pos_of_row(n);
  for (std::size_t k = 0; k < n; ++k) pos_of_row[order[k]] = k;

  auto slot_of = [&](std::size_t pos, std::size_t col) {
    const std::size_t* first = cols_.data() + row_ptr_[pos];
    const std::size_t* last = cols_.data() + row_ptr_[pos + 1];
    const std::size_t* it = std::lower_bound(first, last, col);
    require(it != last && *it == col,
            "SparseLuFactorization: internal pattern inconsistency");
    return static_cast<std::size_t>(it - cols_.data());
  };

  // Scatter map: input nonzero -> L+U slot (both permutations folded in).
  input_nnz_ = a.row_start[n];
  scatter_.resize(input_nnz_);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = a.row_start[r]; k < a.row_start[r + 1]; ++k) {
      scatter_[k] = slot_of(pos_of_row[inv[r]], inv[a.col_index[k]]);
    }
  }

  // Elimination schedule: for each step k, the rows below it with a
  // structural entry in column k, plus the tail-to-target slot mapping.
  col_ptr_.assign(n + 1, 0);
  targets_.clear();
  op_tgt_.clear();
  for (std::size_t pos = 0; pos < n; ++pos) {
    for (std::size_t s = row_ptr_[pos]; s < diag_[pos]; ++s) {
      ++col_ptr_[cols_[s] + 1];
    }
  }
  for (std::size_t k = 0; k < n; ++k) col_ptr_[k + 1] += col_ptr_[k];
  targets_.resize(col_ptr_[n]);
  std::vector<std::size_t> fill_at(col_ptr_.begin(), col_ptr_.end() - 1);
  for (std::size_t pos = 0; pos < n; ++pos) {
    for (std::size_t s = row_ptr_[pos]; s < diag_[pos]; ++s) {
      targets_[fill_at[cols_[s]]++] = Target{s, 0};
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t tail_begin = diag_[k] + 1;
    const std::size_t tail_len = row_ptr_[k + 1] - tail_begin;
    for (std::size_t t = col_ptr_[k]; t < col_ptr_[k + 1]; ++t) {
      Target& tgt = targets_[t];
      tgt.op_start = op_tgt_.size();
      // The L slot's row: recover the pivot position of the target row by
      // binary search over row_ptr_.
      const std::size_t pos =
          static_cast<std::size_t>(
              std::upper_bound(row_ptr_.begin(), row_ptr_.end(), tgt.l_slot) -
              row_ptr_.begin()) -
          1;
      for (std::size_t s = tail_begin; s < tail_begin + tail_len; ++s) {
        op_tgt_.push_back(slot_of(pos, cols_[s]));
      }
    }
  }
}

bool SparseLuFactorization::run_schedule() {
  constexpr double kMaxMultiplier = 1.0 / kRefactorTau;
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t tail_begin = diag_[k] + 1;
    const std::size_t tail_len = row_ptr_[k + 1] - tail_begin;
    const double pivot = vals_[diag_[k]];
    if (!(std::abs(pivot) > 0.0)) {
      rejected_row_ = orig_row_[k];
      return false;
    }
    const double inv_pivot = 1.0 / pivot;
    for (std::size_t t = col_ptr_[k]; t < col_ptr_[k + 1]; ++t) {
      const Target& tgt = targets_[t];
      const double f = vals_[tgt.l_slot] * inv_pivot;
      // Multiplier test: the frozen pivot must still dominate column k
      // (see kRefactorTau).  The negated form also rejects NaN.
      if (!(std::abs(f) <= kMaxMultiplier)) {
        rejected_row_ = orig_row_[k];
        return false;
      }
      vals_[tgt.l_slot] = f;
      const std::size_t* out = op_tgt_.data() + tgt.op_start;
      const double* src = vals_.data() + tail_begin;
      for (std::size_t i = 0; i < tail_len; ++i) {
        vals_[out[i]] -= f * src[i];
      }
    }
  }
  return true;
}

bool SparseLuFactorization::refactor(const CsrView& a) {
  rejected_row_ = npos;
  if (n_ == 0 || a.n != n_ || a.row_start[n_] != input_nnz_) return false;
  std::fill(vals_.begin(), vals_.end(), 0.0);
  for (std::size_t i = 0; i < input_nnz_; ++i) {
    vals_[scatter_[i]] += a.values[i];
  }
  return run_schedule();
}

double SparseLuFactorization::max_multiplier() const {
  double worst = 0.0;
  for (std::size_t k = 0; k < n_; ++k) {
    for (std::size_t s = row_ptr_[k]; s < diag_[k]; ++s) {
      worst = std::max(worst, std::abs(vals_[s]));
    }
  }
  return worst;
}

Vector SparseLuFactorization::solve(const Vector& b) const {
  Vector x = b;
  solve_in_place(x);
  return x;
}

void SparseLuFactorization::solve_in_place(Vector& x) const {
  Vector y;
  solve_in_place(x, y);
}

void SparseLuFactorization::solve_in_place(Vector& x, Vector& y) const {
  require(analyzed(), "SparseLuFactorization::solve: not factored");
  require(x.size() == n_, "SparseLuFactorization::solve: size mismatch");

  // Forward substitution, L has unit diagonal; y holds x permuted into
  // pivot order.  Every y[k] is written before it is read.
  if (y.size() != n_) y = Vector(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    double sum = x[orig_row_[k]];
    for (std::size_t s = row_ptr_[k]; s < diag_[k]; ++s) {
      sum -= vals_[s] * y[cols_[s]];
    }
    y[k] = sum;
  }
  // Back substitution with U; y is indexed by elimination step, so undo
  // the fill-reducing column permutation on the way out.
  for (std::size_t k = n_; k-- > 0;) {
    double sum = y[k];
    for (std::size_t s = diag_[k] + 1; s < row_ptr_[k + 1]; ++s) {
      sum -= vals_[s] * y[cols_[s]];
    }
    y[k] = sum / vals_[diag_[k]];
  }
  for (std::size_t k = 0; k < n_; ++k) x[col_perm_[k]] = y[k];
}

}  // namespace nemsim::linalg
