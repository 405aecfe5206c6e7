#include "nemsim/spice/newton.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nemsim/linalg/lu.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/kernels.h"
#include "nemsim/util/error.h"
#include "nemsim/util/logging.h"

namespace nemsim::spice {

namespace {

/// Residual norm weighted per-row by reltol*scale + row_abstol; a value
/// <= 1 means every row satisfies its convergence criterion.
double weighted_residual_norm(const MnaSystem& system,
                              const linalg::Vector& residual,
                              const linalg::Vector& scale, double reltol) {
  double worst = 0.0;
  for (std::size_t i = 0; i < residual.size(); ++i) {
    const double tol =
        reltol * scale[i] + system.unknown_info(i).row_abstol;
    worst = std::max(worst, std::abs(residual[i]) / tol);
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
    worst = std::max(worst, std::abs(x_new[i] - x[i]) / tol);
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
    return std::abs(residual[i]) / tol;
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

bool NewtonSolver::uses_sparse() const {
  switch (options_.solver) {
    case JacobianSolver::kDense:
      return false;
    case JacobianSolver::kSparse:
      return true;
    case JacobianSolver::kAuto:
      return system_.num_unknowns() >= options_.sparse_threshold;
  }
  return false;
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
  // Building the plan here (on the first solve) also grows the pattern
  // before the sparse skeleton is made.
  const KernelPlan& plan = system_.kernel_plan();
  const std::int64_t evals_before = system_.nonlinear_evals();
  if (stats != nullptr) {
    lane_evals_before_.clear();
    for (const KernelLane& lane : plan.lanes) {
      lane_evals_before_.push_back(lane.evals);
    }
  }
  auto record = [&]() {
    if (stats == nullptr) return;
    stats->nonlinear_evals += system_.nonlinear_evals() - evals_before;
    for (std::size_t i = 0; i < plan.lanes.size(); ++i) {
      stats->add_kernel_lane_evals(
          plan.lanes[i].bucket, plan.lanes[i].evals - lane_evals_before_[i]);
    }
  };
  try {
    linalg::Vector x;
    if (uses_sparse()) {
      if (stats) stats->used_sparse = true;
      x = solve_plain_sparse(x0, mode, time, dt, gmin, source_factor, stats);
    } else {
      x = solve_plain_dense(x0, mode, time, dt, gmin, source_factor, stats);
    }
    record();
    return x;
  } catch (...) {
    record();
    throw;
  }
}

linalg::Vector NewtonSolver::solve_plain_dense(const linalg::Vector& x0,
                                               AnalysisMode mode, double time,
                                               double dt, double gmin,
                                               double source_factor,
                                               NewtonStats* stats) {
  const std::size_t n = system_.num_unknowns();
  linalg::Vector x = x0;
  linalg::Matrix jacobian;
  linalg::Vector residual, scale;
  linalg::Vector x_trial, residual_trial, scale_trial;

  system_.assemble(x, jacobian, residual, scale, mode, time, dt, gmin,
                   source_factor);
  if (stats) ++stats->assembles;
  double res_norm =
      weighted_residual_norm(system_, residual, scale, options_.reltol);
  double last_update_norm = 0.0;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    if (stats) {
      ++stats->iterations;
      ++stats->total_iterations;
    }

    // Newton direction: J dx = -f.
    linalg::Vector dx;
    try {
      const linalg::LuDecomposition lu(jacobian);
      if (stats) ++stats->factorizations;
      linalg::Vector rhs = residual;
      rhs *= -1.0;
      dx = lu.solve(rhs);
    } catch (const SingularMatrixError&) {
      throw ConvergenceError(
          "Newton: singular Jacobian (floating node or unstable device?)",
          failure_diagnostics(system_, residual, scale, options_.reltol,
                              time, dt, iter, res_norm, last_update_norm,
                              "singular-jacobian"));
    }

    const double clamp = step_clamp(system_, dx);

    // Damped accept: halve the step while the weighted residual norm
    // increases badly.  The first (undamped) trial assembles residual AND
    // Jacobian — if accepted, which is the common case, the Jacobian is
    // already in place for the next iteration.  Extra damping trials only
    // assemble the residual; the Jacobian is refreshed after acceptance.
    double alpha = clamp;
    double trial_norm = 0.0;
    bool jacobian_at_trial = false;
    for (int halving = 0; halving <= options_.max_damping_halvings;
         ++halving) {
      x_trial = x;
      for (std::size_t i = 0; i < n; ++i) x_trial[i] += alpha * dx[i];
      if (halving == 0) {
        system_.assemble(x_trial, jacobian, residual_trial, scale_trial,
                         mode, time, dt, gmin, source_factor);
        jacobian_at_trial = true;
        if (stats) ++stats->assembles;
      } else {
        system_.assemble_residual(x_trial, residual_trial, scale_trial, mode,
                                  time, dt, gmin, source_factor);
        jacobian_at_trial = false;
        if (stats) ++stats->residual_assembles;
      }
      trial_norm = weighted_residual_norm(system_, residual_trial, scale_trial,
                                          options_.reltol);
      // Accept descent, any sub-tolerance point, or a mild increase when
      // the step was clamped (the model may need to traverse a barrier).
      if (trial_norm <= std::max(1.0, res_norm) ||
          (halving == options_.max_damping_halvings)) {
        break;
      }
      alpha *= 0.5;
    }

    const double update_norm =
        weighted_update_norm(system_, x, x_trial, options_.reltol);
    last_update_norm = update_norm;

    x = x_trial;
    residual = residual_trial;
    scale = scale_trial;
    res_norm = trial_norm;

    if (res_norm <= 1.0 && update_norm <= 1.0) return x;

    if (!jacobian_at_trial) {
      // A damped trial was accepted: refresh the Jacobian at the new x.
      system_.assemble(x, jacobian, residual, scale, mode, time, dt, gmin,
                       source_factor);
      if (stats) ++stats->assembles;
    }
  }
  throw ConvergenceError(
      "Newton: no convergence after " +
          std::to_string(options_.max_iterations) +
          " iterations (weighted residual " + std::to_string(res_norm) + ")",
      failure_diagnostics(system_, residual, scale, options_.reltol, time,
                          dt, options_.max_iterations, res_norm,
                          last_update_norm, "plain"));
}

void NewtonSolver::ensure_sparse_skeleton() {
  const std::uint64_t epoch = system_.jacobian_pattern_epoch();
  if (!sparse_ready_ || sparse_epoch_ != epoch) {
    sparse_jac_ = system_.make_sparse_jacobian();
    sparse_epoch_ = system_.jacobian_pattern_epoch();
    sparse_ready_ = true;
    lu_ready_ = false;
  }
}

linalg::Vector NewtonSolver::solve_plain_sparse(const linalg::Vector& x0,
                                                AnalysisMode mode, double time,
                                                double dt, double gmin,
                                                double source_factor,
                                                NewtonStats* stats) {
  const std::size_t n = system_.num_unknowns();
  linalg::Vector x = x0;
  linalg::Vector residual, scale;
  linalg::Vector x_trial, residual_trial, scale_trial;

  ensure_sparse_skeleton();

  // Linear devices' Jacobian values are constant for the whole solve
  // (fixed mode/time/dt and committed device state): stamp them once.
  auto refresh_baseline = [&]() {
    while (!system_.assemble_linear_jacobian(x, sparse_jac_, linear_baseline_,
                                             mode, time, dt)) {
      ensure_sparse_skeleton();
    }
  };
  refresh_baseline();

  // Full assembly with pattern-growth retry: on a miss the system grows
  // its pattern, we rebuild the skeleton + baseline and assemble again.
  auto assemble_full = [&](const linalg::Vector& xi, linalg::Vector& f,
                           linalg::Vector& s) {
    while (!system_.assemble_sparse(xi, sparse_jac_, f, s, mode, time, dt,
                                    gmin, source_factor, &linear_baseline_)) {
      ensure_sparse_skeleton();
      refresh_baseline();
    }
    if (stats) ++stats->assembles;
  };

  assemble_full(x, residual, scale);
  double res_norm =
      weighted_residual_norm(system_, residual, scale, options_.reltol);
  double last_update_norm = 0.0;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    if (stats) {
      ++stats->iterations;
      ++stats->total_iterations;
    }

    // Newton direction: J dx = -f.  The symbolic analysis (pivot order +
    // fill pattern) is reused across iterations; only the numeric sweep
    // runs, unless a frozen pivot no longer dominates its column or the
    // pattern changed — then a full factorization recovers.
    linalg::Vector dx;
    try {
      const linalg::CsrView view = linalg::csr_view(sparse_jac_);
      if (lu_ready_ && sparse_lu_.refactor(view)) {
        if (stats) ++stats->factorization_reuses;
      } else {
        const std::size_t row = sparse_lu_.rejected_row();
        if (stats && lu_ready_ && row != linalg::SparseLuFactorization::npos) {
          ++stats->refactor_rejections;
          if (stats->refactor_rejects.size() < NewtonStats::kMaxRecords) {
            stats->refactor_rejects.push_back(
                {time, row, system_.unknown_info(row).name});
          }
        }
        sparse_lu_.factor(view);
        lu_ready_ = true;
        if (stats) ++stats->factorizations;
      }
      dx = residual;
      for (std::size_t i = 0; i < n; ++i) dx[i] = -dx[i];
      sparse_lu_.solve_in_place(dx);
    } catch (const SingularMatrixError&) {
      throw ConvergenceError(
          "Newton: singular Jacobian (floating node or unstable device?)",
          failure_diagnostics(system_, residual, scale, options_.reltol,
                              time, dt, iter, res_norm, last_update_norm,
                              "singular-jacobian"));
    }

    const double clamp = step_clamp(system_, dx);

    // Damped accept, as on the dense path: the undamped trial assembles
    // residual and Jacobian, halved trials the residual only.
    double alpha = clamp;
    double trial_norm = 0.0;
    bool jacobian_at_trial = false;
    for (int halving = 0; halving <= options_.max_damping_halvings;
         ++halving) {
      x_trial = x;
      for (std::size_t i = 0; i < n; ++i) x_trial[i] += alpha * dx[i];
      if (halving == 0) {
        assemble_full(x_trial, residual_trial, scale_trial);
        jacobian_at_trial = true;
      } else {
        system_.assemble_residual(x_trial, residual_trial, scale_trial, mode,
                                  time, dt, gmin, source_factor);
        jacobian_at_trial = false;
        if (stats) ++stats->residual_assembles;
      }
      trial_norm = weighted_residual_norm(system_, residual_trial, scale_trial,
                                          options_.reltol);
      if (trial_norm <= std::max(1.0, res_norm) ||
          (halving == options_.max_damping_halvings)) {
        break;
      }
      alpha *= 0.5;
    }

    const double update_norm =
        weighted_update_norm(system_, x, x_trial, options_.reltol);
    last_update_norm = update_norm;

    x = x_trial;
    residual = residual_trial;
    scale = scale_trial;
    res_norm = trial_norm;

    if (res_norm <= 1.0 && update_norm <= 1.0) return x;

    if (!jacobian_at_trial) {
      assemble_full(x, residual, scale);
      res_norm =
          weighted_residual_norm(system_, residual, scale, options_.reltol);
    }
  }
  throw ConvergenceError(
      "Newton: no convergence after " +
          std::to_string(options_.max_iterations) +
          " iterations (weighted residual " + std::to_string(res_norm) + ")",
      failure_diagnostics(system_, residual, scale, options_.reltol, time,
                          dt, options_.max_iterations, res_norm,
                          last_update_norm, "plain"));
}

linalg::Vector NewtonSolver::solve(const linalg::Vector& x0, AnalysisMode mode,
                                   double time, double dt,
                                   NewtonStats* stats, RunReport* report) {
  NewtonStats local;
  NewtonStats* st = stats ? stats : &local;

  // Runs one ladder stage, recording its iteration cost (the delta of the
  // cumulative counter — stages accumulate into the total instead of
  // clobbering each other) and outcome into the report.
  auto run_stage = [&](SteppingStageRecord::Kind kind, double value,
                       const linalg::Vector& start, double gmin,
                       double source_factor) {
    const int before = st->total_iterations;
    try {
      linalg::Vector x =
          solve_plain(start, mode, time, dt, gmin, source_factor, st);
      const int spent = st->total_iterations - before;
      if (report) report->stages.push_back({kind, value, spent, true});
      // Documented NewtonStats semantics: `iterations` is the cost of the
      // final (successful) solve; the ladder total lives in
      // total_iterations.
      st->iterations = spent;
      return x;
    } catch (const ConvergenceError&) {
      if (report) {
        report->stages.push_back(
            {kind, value, st->total_iterations - before, false});
      }
      st->iterations = st->total_iterations;
      throw;
    }
  };

  // Keeps the most informative failure so the final error can carry its
  // structured payload even after later strategies also fail.
  ConvergenceError last_error("Newton: no strategy attempted");

  try {
    return run_stage(SteppingStageRecord::Kind::kPlain, options_.gmin_final,
                     x0, options_.gmin_final, 1.0);
  } catch (const ConvergenceError& e) {
    last_error = e;
    log_debug("Newton: plain solve failed, trying gmin stepping");
  }

  if (options_.gmin_stepping) {
    try {
      linalg::Vector x = x0;
      // Ramp the shunt conductance down decade by decade, reusing each
      // converged point as the next start.
      for (double gmin = 1e-3; gmin >= options_.gmin_final * 0.99 &&
                               gmin >= 1e-15;
           gmin *= 0.1) {
        ++st->gmin_steps;
        x = run_stage(SteppingStageRecord::Kind::kGminStep, gmin, x, gmin,
                      1.0);
      }
      return run_stage(SteppingStageRecord::Kind::kGminStep,
                       options_.gmin_final, x, options_.gmin_final, 1.0);
    } catch (const ConvergenceError& e) {
      last_error = e;
      log_debug("Newton: gmin stepping failed, trying source stepping");
    }
  }

  if (options_.source_stepping) {
    linalg::Vector x(system_.num_unknowns(), 0.0);
    double factor = 0.0;
    double step = 0.1;
    // At factor 0 all sources are off; x = 0 is the exact solution for
    // most circuits, so Newton converges immediately and we walk up.
    while (factor < 1.0) {
      const double next = std::min(1.0, factor + step);
      try {
        ++st->source_steps;
        x = run_stage(SteppingStageRecord::Kind::kSourceStep, next, x,
                      options_.gmin_final, next);
        factor = next;
        step = std::min(0.25, step * 1.5);
      } catch (const ConvergenceError& e) {
        last_error = e;
        step *= 0.5;
        if (step < 1e-4) {
          const std::string msg = "Newton: source stepping stalled at factor " +
                                  std::to_string(factor);
          if (last_error.has_diagnostics()) {
            ConvergenceDiagnostics diag = *last_error.diagnostics();
            diag.strategy = "source";
            throw ConvergenceError(msg, std::move(diag));
          }
          throw ConvergenceError(msg);
        }
      }
    }
    return x;
  }

  const std::string msg =
      std::string("Newton: all strategies failed (last: ") +
      last_error.what() + ")";
  if (last_error.has_diagnostics()) {
    ConvergenceDiagnostics diag = *last_error.diagnostics();
    diag.strategy = options_.gmin_stepping ? "gmin" : "plain";
    throw ConvergenceError(msg, std::move(diag));
  }
  throw ConvergenceError(msg);
}

}  // namespace nemsim::spice
