// Damped Newton-Raphson over the MNA system, with gmin stepping and
// source stepping fallbacks for hard DC problems (classic SPICE homotopy
// ladder).
//
// Every production solve runs on the sparse path: CSR assembly on the
// pattern fixed with the system's kernel plan (nemsim/spice/engine.h)
// plus SparseLuFactorization, whose symbolic analysis (pivot
// order + fill pattern) is computed once and reused across iterations,
// sweep points and transient steps with a numeric-only refactorization.
// On the paper circuits that beats a dense LU at every size, down to the
// 19-unknown SRAM half-cell: refactor + solve about 0.6 us against about
// 2 us for dense LU + solve (DESIGN.md decision #4).  The dense path
// (JacobianSolver::kDense) is kept only as the oracle the sparse path is
// tested against.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nemsim/linalg/matrix.h"
#include "nemsim/linalg/sparse.h"
#include "nemsim/linalg/sparse_lu.h"
#include "nemsim/spice/engine.h"

namespace nemsim::spice {

struct RunReport;  // spice/diagnostics.h

/// Which linear solver backs the Newton iteration.
enum class JacobianSolver {
  kDense,   ///< dense LU re-factored every iteration: test oracle only
  kSparse,  ///< CSR assembly + cached-symbolic sparse LU (production)
};

struct NewtonOptions {
  int max_iterations = 150;
  /// Shunt conductance left in place even in the final solve; 0 for a
  /// clean system.  A tiny nonzero value (1e-15) guards floating nodes.
  double gmin_final = 1e-15;
  /// Linear-solver selection (see JacobianSolver).
  JacobianSolver solver = JacobianSolver::kSparse;
};

/// One sparse refactor() whose frozen pivot order was rejected, forcing a
/// fresh factor() (see SparseLuFactorization::kRefactorTau).
struct RefactorRejectRecord {
  double time = 0.0;        ///< analysis time of the Newton solve
  std::size_t unknown = 0;  ///< MNA row of the rejected pivot
  std::string name;         ///< display name from the unknown table
};

struct NewtonStats {
  /// Caps refactor_rejects (the same cap as RunReport::kMaxRecords);
  /// refactor_rejections keeps counting past it.
  static constexpr std::size_t kMaxRecords = 256;

  /// Iterations of the successful (final) solve only.  After a failed
  /// solve this equals total_iterations (everything that was attempted).
  int iterations = 0;
  /// Cumulative iterations including every homotopy ladder stage — never
  /// reset between stages, so the caller sees total work, not just the
  /// last stage (see RunReport::stages for the per-stage split).
  int total_iterations = 0;
  int gmin_steps = 0;
  int source_steps = 0;
  // Work counters for the fast-path instrumentation (cumulative across
  // ladder solves and, when the caller reuses the struct, across steps).
  std::int64_t assembles = 0;            ///< full residual+Jacobian passes
  /// Residual-only passes: each converging trial (an undamped trial whose
  /// update norm is <= 1 needs no Jacobian) and every damping trial.
  std::int64_t residual_assembles = 0;
  std::int64_t factorizations = 0;       ///< full LU factorizations
  std::int64_t factorization_reuses = 0; ///< sparse numeric refactorizations
  /// Refactorizations rejected by the pivot test; each one is followed by
  /// a full factorization (counted in `factorizations`).
  std::int64_t refactor_rejections = 0;
  std::vector<RefactorRejectRecord> refactor_rejects;  ///< first kMaxRecords
  bool used_sparse = false;              ///< sparse path taken at least once
  std::int64_t nonlinear_evals = 0;      ///< nonlinear model evaluations run
  /// Per-bucket nonlinear device evaluations through the kernel lanes,
  /// keyed by bucket label.  With only in-tree devices the counts sum to
  /// nonlinear_evals.
  std::vector<std::pair<std::string, std::uint64_t>> kernel_lane_evals;
  /// Of kernel_lane_evals, per bucket, the evaluations served by
  /// replaying an identical device's recorded writes (DESIGN.md §7k).
  std::vector<std::pair<std::string, std::uint64_t>> twin_replays;
  /// Assembly passes that re-keyed the sharing classes' state ids because
  /// a device had changed since they were keyed (DESIGN.md §7k).
  std::int64_t twin_rekeys = 0;
  /// Step commits served by adopting an identical device's commit
  /// (MnaSystem::accept; the analysis drivers fold them in).
  std::int64_t shared_accepts = 0;

  /// Accumulates another stats block into this one (counters add,
  /// used_sparse ORs) — used by drivers that solve with a local block per
  /// step and fold it into a run-level report.
  void merge(const NewtonStats& other) {
    iterations += other.iterations;
    total_iterations += other.total_iterations;
    gmin_steps += other.gmin_steps;
    source_steps += other.source_steps;
    assembles += other.assembles;
    residual_assembles += other.residual_assembles;
    factorizations += other.factorizations;
    factorization_reuses += other.factorization_reuses;
    refactor_rejections += other.refactor_rejections;
    for (const RefactorRejectRecord& r : other.refactor_rejects) {
      if (refactor_rejects.size() >= kMaxRecords) break;
      refactor_rejects.push_back(r);
    }
    used_sparse = used_sparse || other.used_sparse;
    nonlinear_evals += other.nonlinear_evals;
    twin_rekeys += other.twin_rekeys;
    shared_accepts += other.shared_accepts;
    for (const auto& [bucket, count] : other.kernel_lane_evals) {
      add_kernel_lane_evals(bucket, count);
    }
    for (const auto& [bucket, count] : other.twin_replays) {
      add_twin_replays(bucket, count);
    }
  }

  /// Adds `count` evaluations to `bucket`'s kernel counter (merge by
  /// label, insertion-ordered).
  void add_kernel_lane_evals(const std::string& bucket, std::uint64_t count) {
    add_bucket_count(kernel_lane_evals, bucket, count);
  }
  /// The same for `bucket`'s replay counter.
  void add_twin_replays(const std::string& bucket, std::uint64_t count) {
    add_bucket_count(twin_replays, bucket, count);
  }

 private:
  static void add_bucket_count(
      std::vector<std::pair<std::string, std::uint64_t>>& counts,
      const std::string& bucket, std::uint64_t count) {
    if (count == 0) return;
    for (auto& [name, total] : counts) {
      if (name == bucket) {
        total += count;
        return;
      }
    }
    counts.emplace_back(bucket, count);
  }
};

/// Solves f(x) = 0 for the configured analysis point.
///
/// Keep one NewtonSolver alive for a whole analysis (every point of a DC
/// sweep, the bias point and every step of a transient): the sparse
/// workspace (CSR skeleton, symbolic LU, linear-device baseline) is made
/// at the first sparse solve and persists between solve calls — the
/// system's Jacobian pattern never changes — and the iteration vectors
/// are reused, so after the first solve the Newton loop allocates
/// nothing.
class NewtonSolver {
 public:
  /// One solver serves one analysis, so constructing it is the analysis
  /// entry: the system's sharing classes are regrouped from the devices'
  /// state here (MnaSystem::regroup_twins).
  NewtonSolver(MnaSystem& system, NewtonOptions options)
      : system_(system), options_(options) {
    system_.regroup_twins();
  }

  /// Plain damped Newton from `x0` with fixed gmin/source factor.
  /// Throws ConvergenceError / SingularMatrixError on failure.
  linalg::Vector solve_plain(const linalg::Vector& x0, AnalysisMode mode,
                             double time, double dt, double gmin,
                             double source_factor, NewtonStats* stats = nullptr);

  /// Full ladder: plain solve, then gmin stepping, then source stepping.
  /// With a `report` attached, every ladder stage is recorded as a
  /// SteppingStageRecord (per-stage iteration counts alongside the
  /// cumulative NewtonStats totals).  On failure the thrown
  /// ConvergenceError carries a ConvergenceDiagnostics payload naming the
  /// worst weighted-residual rows.
  linalg::Vector solve(const linalg::Vector& x0, AnalysisMode mode,
                       double time, double dt, NewtonStats* stats = nullptr,
                       RunReport* report = nullptr);

  const NewtonOptions& options() const { return options_; }

  /// True when solve_plain takes the sparse path (every solver but the
  /// kDense oracle).
  bool uses_sparse() const;

 private:
  /// One analysis point: what every assembly of a solve shares.
  struct Point {
    AnalysisMode mode;
    double time, dt, gmin, source_factor;
  };
  /// Linear-solver backends of the damped loop (newton.cpp): the sparse
  /// production path and the dense oracle.
  class SparseBackend;
  class DenseBackend;
  template <class Backend>
  linalg::Vector damped_newton(Backend& backend, const linalg::Vector& x0,
                               const Point& at, NewtonStats* stats);

  MnaSystem& system_;
  NewtonOptions options_;

  // Iteration vectors, reused across iterations and solves: an accepted
  // trial is swapped in, never copied.
  linalg::Vector residual_, scale_;
  linalg::Vector x_trial_, residual_trial_, scale_trial_;
  linalg::Vector dx_;

  // Sparse workspace, persistent across solves so the symbolic LU
  // analysis amortizes over iterations, sweep points and transient steps.
  linalg::CsrMatrix sparse_jac_;
  linalg::SparseLuFactorization sparse_lu_;
  linalg::Vector lu_scratch_;  ///< solve_in_place's pivot-order vector
  std::vector<double> linear_baseline_;
  bool sparse_ready_ = false;  ///< sparse_jac_ holds the system's skeleton
  bool lu_ready_ = false;      ///< sparse_lu_ holds an analysis of sparse_jac_
  /// Per-lane eval and replay counts at the start of the current solve
  /// (reused, so the snapshot allocates nothing after the first solve).
  std::vector<std::uint64_t> lane_evals_before_;
  std::vector<std::uint64_t> lane_replays_before_;
};

}  // namespace nemsim::spice
