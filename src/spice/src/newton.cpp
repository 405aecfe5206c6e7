#include "nemsim/spice/newton.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "nemsim/linalg/lu.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/kernels.h"
#include "nemsim/util/error.h"
#include "nemsim/util/logging.h"

namespace nemsim::spice {

namespace {

/// |value| / tol for one row, with a non-finite value counted as failing
/// (+inf): folding rows with std::max would skip a NaN row and let a NaN
/// iterate pass as converged.
double row_ratio(double value, double tol) {
  if (!std::isfinite(value)) return std::numeric_limits<double>::infinity();
  return std::abs(value) / tol;
}

bool all_finite(const linalg::Vector& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double e) { return std::isfinite(e); });
}

/// Residual norm weighted per-row by reltol*scale + row_abstol; a value
/// <= 1 means every row satisfies its convergence criterion.
double weighted_residual_norm(const MnaSystem& system,
                              const linalg::Vector& residual,
                              const linalg::Vector& scale, double reltol) {
  double worst = 0.0;
  for (std::size_t i = 0; i < residual.size(); ++i) {
    const double tol =
        reltol * scale[i] + system.unknown_info(i).row_abstol;
    worst = std::max(worst, row_ratio(residual[i], tol));
  }
  return worst;
}

/// Update norm weighted by reltol*max(|x|,|x_new|) + abstol.
double weighted_update_norm(const MnaSystem& system, const linalg::Vector& x,
                            const linalg::Vector& x_new, double reltol) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double tol = reltol * std::max(std::abs(x[i]), std::abs(x_new[i])) +
                       system.unknown_info(i).abstol;
    worst = std::max(worst, row_ratio(x_new[i] - x[i], tol));
  }
  return worst;
}

/// Builds the structured failure payload: top-k worst weighted-residual
/// rows named via the unknown table, plus the exit norms and location.
/// Only runs on the failure path — converging solves never pay for it.
ConvergenceDiagnostics failure_diagnostics(
    const MnaSystem& system, const linalg::Vector& residual,
    const linalg::Vector& scale, double reltol, double time, double dt,
    int iterations, double res_norm, double update_norm,
    const std::string& strategy, std::size_t top_k = 5) {
  ConvergenceDiagnostics diag;
  diag.strategy = strategy;
  diag.time = time;
  diag.dt = dt;
  diag.iterations = iterations;
  diag.residual_norm = res_norm;
  diag.update_norm = update_norm;

  const std::size_t n = residual.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  auto weighted = [&](std::size_t i) {
    const double tol = reltol * scale[i] + system.unknown_info(i).row_abstol;
    return row_ratio(residual[i], tol);
  };
  const std::size_t k = std::min(top_k, n);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return weighted(a) > weighted(b);
                    });
  diag.worst_rows.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t i = order[j];
    diag.worst_rows.push_back(
        {system.unknown_info(i).name, residual[i], weighted(i)});
  }
  return diag;
}

/// Direction-preserving clamp so no unknown exceeds its per-iteration
/// step limit (keeps exponential models in their valid range).
double step_clamp(const MnaSystem& system, const linalg::Vector& dx) {
  double clamp = 1.0;
  for (std::size_t i = 0; i < dx.size(); ++i) {
    const double limit = system.unknown_info(i).max_newton_step;
    if (limit > 0.0 && std::abs(dx[i]) > limit) {
      clamp = std::min(clamp, limit / std::abs(dx[i]));
    }
  }
  return clamp;
}

}  // namespace

/// Production backend: CSR assembly on the frozen pattern, linear devices
/// from a per-solve baseline, and the cached-symbolic sparse LU.
class NewtonSolver::SparseBackend {
 public:
  SparseBackend(NewtonSolver& solver, const Point& at, NewtonStats* stats,
                const linalg::Vector& x0)
      : s_(solver), at_(at), stats_(stats) {
    if (!s_.sparse_ready_) {
      s_.sparse_jac_ = s_.system_.make_sparse_jacobian();
      s_.sparse_ready_ = true;
    }
    // Linear devices' Jacobian values are constant for the whole solve
    // (fixed mode/time/dt and committed device state): stamp them once.
    s_.system_.assemble_linear_jacobian(x0, s_.sparse_jac_,
                                        s_.linear_baseline_, at_.mode,
                                        at_.time, at_.dt);
  }

  /// Residual + Jacobian at `x`.
  void assemble(const linalg::Vector& x, linalg::Vector& f,
                linalg::Vector& scale) {
    s_.system_.assemble_sparse(x, s_.sparse_jac_, f, scale, at_.mode,
                               at_.time, at_.dt, at_.gmin, at_.source_factor,
                               &s_.linear_baseline_);
  }

  /// Residual + scale at `x`, bit for bit those of assemble().
  void assemble_residual(const linalg::Vector& x, linalg::Vector& f,
                         linalg::Vector& scale) {
    s_.system_.assemble_sparse_residual(x, f, scale, at_.mode, at_.time,
                                        at_.dt, at_.gmin, at_.source_factor);
  }

  /// Solves J dx = rhs in place.  The symbolic analysis (pivot order +
  /// fill pattern) is reused; only the numeric sweep runs, unless a frozen
  /// pivot no longer dominates its column — then a full factorization
  /// recovers.
  void solve(linalg::Vector& dx) {
    const linalg::CsrView view = linalg::csr_view(s_.sparse_jac_);
    if (s_.lu_ready_ && s_.sparse_lu_.refactor(view)) {
      if (stats_) ++stats_->factorization_reuses;
    } else {
      const std::size_t row = s_.sparse_lu_.rejected_row();
      if (stats_ && s_.lu_ready_ &&
          row != linalg::SparseLuFactorization::npos) {
        ++stats_->refactor_rejections;
        if (stats_->refactor_rejects.size() < NewtonStats::kMaxRecords) {
          stats_->refactor_rejects.push_back(
              {at_.time, row, s_.system_.unknown_info(row).name});
        }
      }
      s_.sparse_lu_.factor(view);
      s_.lu_ready_ = true;
      if (stats_) ++stats_->factorizations;
    }
    s_.sparse_lu_.solve_in_place(dx, s_.lu_scratch_);
  }

 private:
  NewtonSolver& s_;
  const Point& at_;
  NewtonStats* stats_;
};

/// Reference backend: dense assembly and a fresh dense LU every
/// iteration.  The oracle the sparse path is tested against.
class NewtonSolver::DenseBackend {
 public:
  DenseBackend(NewtonSolver& solver, const Point& at, NewtonStats* stats)
      : s_(solver), at_(at), stats_(stats) {}

  void assemble(const linalg::Vector& x, linalg::Vector& f,
                linalg::Vector& scale) {
    s_.system_.assemble(x, jacobian_, f, scale, at_.mode, at_.time, at_.dt,
                        at_.gmin, at_.source_factor);
  }

  void assemble_residual(const linalg::Vector& x, linalg::Vector& f,
                         linalg::Vector& scale) {
    s_.system_.assemble_residual(x, f, scale, at_.mode, at_.time, at_.dt,
                                 at_.gmin, at_.source_factor);
  }

  void solve(linalg::Vector& dx) {
    const linalg::LuDecomposition lu(jacobian_);
    if (stats_) ++stats_->factorizations;
    dx = lu.solve(dx);
  }

 private:
  NewtonSolver& s_;
  const Point& at_;
  NewtonStats* stats_;
  linalg::Matrix jacobian_;
};

bool NewtonSolver::uses_sparse() const {
  return options_.solver == JacobianSolver::kSparse;
}

linalg::Vector NewtonSolver::solve_plain(const linalg::Vector& x0,
                                         AnalysisMode mode, double time,
                                         double dt, double gmin,
                                         double source_factor,
                                         NewtonStats* stats) {
  require(x0.size() == system_.num_unknowns(),
          "NewtonSolver: initial guess size mismatch");
  // Fold the system's eval/lane deltas into the stats block even when
  // the solve throws — homotopy ladder retries must not lose counts.
  const KernelPlan& plan = system_.kernel_plan();
  const std::int64_t evals_before = system_.nonlinear_evals();
  const std::int64_t rekeys_before = system_.twin_rekeys();
  if (stats != nullptr) {
    lane_evals_before_.clear();
    lane_replays_before_.clear();
    for (const KernelLane& lane : plan.lanes) {
      lane_evals_before_.push_back(lane.evals);
      lane_replays_before_.push_back(lane.twin_replays);
    }
  }
  auto record = [&]() {
    if (stats == nullptr) return;
    stats->nonlinear_evals += system_.nonlinear_evals() - evals_before;
    stats->twin_rekeys += system_.twin_rekeys() - rekeys_before;
    for (std::size_t i = 0; i < plan.lanes.size(); ++i) {
      const KernelLane& lane = plan.lanes[i];
      stats->add_kernel_lane_evals(lane.bucket,
                                   lane.evals - lane_evals_before_[i]);
      stats->add_twin_replays(lane.bucket,
                              lane.twin_replays - lane_replays_before_[i]);
    }
  };
  const Point at{mode, time, dt, gmin, source_factor};
  try {
    linalg::Vector x;
    if (uses_sparse()) {
      if (stats) stats->used_sparse = true;
      SparseBackend backend(*this, at, stats, x0);
      x = damped_newton(backend, x0, at, stats);
    } else {
      DenseBackend backend(*this, at, stats);
      x = damped_newton(backend, x0, at, stats);
    }
    record();
    return x;
  } catch (...) {
    record();
    throw;
  }
}

template <class Backend>
linalg::Vector NewtonSolver::damped_newton(Backend& backend,
                                           const linalg::Vector& x0,
                                           const Point& at,
                                           NewtonStats* stats) {
  const std::size_t n = system_.num_unknowns();
  // Relative tolerance on unknown updates and residual-vs-scale.  Kept
  // well below the transient LTE tolerance so integration error control
  // sees truncation error, not Newton convergence noise.
  constexpr double reltol = 1e-7;
  // Maximum halvings of the Newton step during damping.
  constexpr int kMaxDampingHalvings = 8;
  linalg::Vector x = x0;

  backend.assemble(x, residual_, scale_);
  if (stats) ++stats->assembles;
  double res_norm = weighted_residual_norm(system_, residual_, scale_, reltol);
  double last_update_norm = 0.0;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    if (stats) {
      ++stats->iterations;
      ++stats->total_iterations;
    }

    // Newton direction: J dx = -f.
    dx_ = residual_;
    for (std::size_t i = 0; i < n; ++i) dx_[i] = -dx_[i];
    try {
      backend.solve(dx_);
    } catch (const SingularMatrixError&) {
      throw ConvergenceError(
          "Newton: singular Jacobian (floating node or unstable device?)",
          failure_diagnostics(system_, residual_, scale_, reltol, at.time,
                              at.dt, iter, res_norm, last_update_norm,
                              "singular-jacobian"));
    }

    const double clamp = step_clamp(system_, dx_);

    // Damped accept: halve the step while the weighted residual norm
    // increases badly.  The undamped trial assembles residual AND
    // Jacobian, so an accepted trial (the common case) leaves the next
    // iteration's Jacobian in place.  Its update norm is known before it
    // is assembled, though, and when that is <= 1 the trial converges
    // exactly when its residual does: a converged solve needs no
    // Jacobian, so that trial, like every damping trial, assembles only
    // the residual (bit for bit the full pass's).
    double alpha = clamp;
    double trial_norm = 0.0;
    double update_norm = 0.0;
    bool jacobian_at_trial = false;
    for (int halving = 0; halving <= kMaxDampingHalvings; ++halving) {
      x_trial_ = x;
      for (std::size_t i = 0; i < n; ++i) x_trial_[i] += alpha * dx_[i];
      update_norm = weighted_update_norm(system_, x, x_trial_, reltol);
      jacobian_at_trial = halving == 0 && update_norm > 1.0;
      if (jacobian_at_trial) {
        backend.assemble(x_trial_, residual_trial_, scale_trial_);
        if (stats) ++stats->assembles;
      } else {
        backend.assemble_residual(x_trial_, residual_trial_, scale_trial_);
        if (stats) ++stats->residual_assembles;
      }
      trial_norm = weighted_residual_norm(system_, residual_trial_,
                                          scale_trial_, reltol);
      // Accept descent, any sub-tolerance point, or a mild increase when
      // the step was clamped (the model may need to traverse a barrier).
      if (trial_norm <= std::max(1.0, res_norm) ||
          (halving == kMaxDampingHalvings)) {
        break;
      }
      alpha *= 0.5;
    }
    if (std::isinf(trial_norm) && !all_finite(residual_trial_)) {
      // Even the shortest step leaves a non-finite row: stop and name it
      // rather than carry a NaN into every unknown.
      throw ConvergenceError(
          "Newton: non-finite residual at every damped step",
          failure_diagnostics(system_, residual_trial_, scale_trial_, reltol,
                              at.time, at.dt, iter + 1, trial_norm,
                              last_update_norm, "non-finite-residual"));
    }

    last_update_norm = update_norm;
    std::swap(x, x_trial_);
    std::swap(residual_, residual_trial_);
    std::swap(scale_, scale_trial_);
    res_norm = trial_norm;

    if (res_norm <= 1.0 && last_update_norm <= 1.0) return x;

    if (!jacobian_at_trial) {
      // The accepted trial assembled only its residual: assemble the
      // Jacobian at the new x.
      backend.assemble(x, residual_, scale_);
      if (stats) ++stats->assembles;
      res_norm = weighted_residual_norm(system_, residual_, scale_, reltol);
    }
  }
  throw ConvergenceError(
      "Newton: no convergence after " +
          std::to_string(options_.max_iterations) +
          " iterations (weighted residual " + std::to_string(res_norm) + ")",
      failure_diagnostics(system_, residual_, scale_, reltol, at.time, at.dt,
                          options_.max_iterations, res_norm,
                          last_update_norm, "plain"));
}

linalg::Vector NewtonSolver::solve(const linalg::Vector& x0, AnalysisMode mode,
                                   double time, double dt,
                                   NewtonStats* stats, RunReport* report) {
  // The stage records need the iteration counters; with neither a report
  // nor a caller's stats block nothing reads them, so nothing is tallied.
  NewtonStats local;
  NewtonStats* st = stats ? stats : report ? &local : nullptr;

  // Runs one ladder stage, recording its iteration cost (the delta of the
  // cumulative counter — stages accumulate into the total instead of
  // clobbering each other) and outcome into the report.
  auto run_stage = [&](SteppingStageRecord::Kind kind, double value,
                       const linalg::Vector& start, double gmin,
                       double source_factor) {
    const int before = st ? st->total_iterations : 0;
    try {
      linalg::Vector x =
          solve_plain(start, mode, time, dt, gmin, source_factor, st);
      if (st) {
        const int spent = st->total_iterations - before;
        if (report) report->stages.push_back({kind, value, spent, true});
        // Documented NewtonStats semantics: `iterations` is the cost of
        // the final (successful) solve; the ladder total lives in
        // total_iterations.
        st->iterations = spent;
      }
      return x;
    } catch (const ConvergenceError&) {
      if (st) {
        if (report) {
          report->stages.push_back(
              {kind, value, st->total_iterations - before, false});
        }
        st->iterations = st->total_iterations;
      }
      throw;
    }
  };

  try {
    return run_stage(SteppingStageRecord::Kind::kPlain, options_.gmin_final,
                     x0, options_.gmin_final, 1.0);
  } catch (const ConvergenceError&) {
    log_debug("Newton: plain solve failed, trying gmin stepping");
  }

  try {
    linalg::Vector x = x0;
    // Ramp the shunt conductance down decade by decade, reusing each
    // converged point as the next start.
    for (double gmin = 1e-3; gmin >= options_.gmin_final * 0.99 &&
                             gmin >= 1e-15;
         gmin *= 0.1) {
      if (st) ++st->gmin_steps;
      x = run_stage(SteppingStageRecord::Kind::kGminStep, gmin, x, gmin,
                    1.0);
    }
    return run_stage(SteppingStageRecord::Kind::kGminStep,
                     options_.gmin_final, x, options_.gmin_final, 1.0);
  } catch (const ConvergenceError&) {
    log_debug("Newton: gmin stepping failed, trying source stepping");
  }

  // Source stepping, the last rung: it reaches factor 1 or throws
  // "stalled".  At factor 0 all sources are off; x = 0 is the exact
  // solution for most circuits, so Newton converges immediately and we
  // walk up.
  linalg::Vector x(system_.num_unknowns(), 0.0);
  double factor = 0.0;
  double step = 0.1;
  while (factor < 1.0) {
    const double next = std::min(1.0, factor + step);
    try {
      if (st) ++st->source_steps;
      x = run_stage(SteppingStageRecord::Kind::kSourceStep, next, x,
                    options_.gmin_final, next);
      factor = next;
      step = std::min(0.25, step * 1.5);
    } catch (const ConvergenceError& e) {
      step *= 0.5;
      if (step < 1e-4) {
        const std::string msg = "Newton: source stepping stalled at factor " +
                                std::to_string(factor);
        if (e.has_diagnostics()) {
          ConvergenceDiagnostics diag = *e.diagnostics();
          diag.strategy = "source";
          throw ConvergenceError(msg, std::move(diag));
        }
        throw ConvergenceError(msg);
      }
    }
  }
  return x;
}

}  // namespace nemsim::spice
