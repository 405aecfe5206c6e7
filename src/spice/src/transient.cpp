#include "nemsim/spice/transient.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "nemsim/spice/analyze.h"
#include "nemsim/util/error.h"
#include "nemsim/util/logging.h"
#include "op_internal.h"

namespace nemsim::spice {

namespace {

/// Quadratic extrapolation of each unknown through the last `m` (1-3)
/// accepted points, evaluated at `t` into `out`.  Used both as the Newton
/// predictor and as the reference for the LTE estimate.
void extrapolate(const std::array<double, 3>& ts,
                 const std::array<linalg::Vector, 3>& xs, std::size_t m,
                 double t, linalg::Vector& out) {
  out = xs[m - 1];
  if (m == 1) return;
  if (m == 2) {
    const double w = (t - ts[0]) / (ts[1] - ts[0]);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = xs[0][i] + w * (xs[1][i] - xs[0][i]);
    }
    return;
  }
  // Lagrange through the last three points.
  const double t0 = ts[0], t1 = ts[1], t2 = ts[2];
  const double l0 = (t - t1) * (t - t2) / ((t0 - t1) * (t0 - t2));
  const double l1 = (t - t0) * (t - t2) / ((t1 - t0) * (t1 - t2));
  const double l2 = (t - t0) * (t - t1) / ((t2 - t0) * (t2 - t1));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = l0 * xs[0][i] + l1 * xs[1][i] + l2 * xs[2][i];
  }
}

}  // namespace

Waveform transient(MnaSystem& system, const TransientOptions& options) {
  require(options.tstop > 0.0, "transient: tstop must be positive");
  const double dt_max =
      options.dt_max > 0.0 ? options.dt_max : options.tstop / 50.0;
  require(options.dt_initial > 0.0 && options.dt_initial <= dt_max,
          "transient: dt_initial must be in (0, dt_max]");
  // A non-positive or NaN dt_min never trips the retry floor below, so a
  // step that keeps failing would shrink dt toward zero without end.
  require(std::isfinite(options.dt_min) && options.dt_min > 0.0 &&
              options.dt_min <= options.dt_initial,
          "transient: dt_min must be finite and in (0, dt_initial]");
  require(std::isfinite(options.lte_reltol) && options.lte_reltol > 0.0,
          "transient: lte_reltol must be finite and positive");
  require(std::isfinite(options.reject_factor) && options.reject_factor > 0.0,
          "transient: reject_factor must be finite and positive");

  system.reset_devices();

  RunReport* report = options.report;
  if (report && report->analysis.empty()) report->analysis = "transient";

  // Lint and analyze once at analysis entry; strict mode throws before
  // any solve.
  lint::lint_gate(system, options.lint, report);
  analyze::analyze_gate(system.circuit(), options.analyze, report);

  // One Newton solver for the bias point and every step, so the
  // stepping inherits the bias point's symbolic LU.
  NewtonSolver newton(system, options.newton);

  // Bias point at t = 0 (commits device state).  The report is shared so
  // the op phase lands in the same sink ("phase.op" timing, op stage
  // records).  The gate above already ran, so the embedded op must not
  // lint again.
  OpOptions op_options;
  op_options.report = report;
  op_options.lint = lint::LintMode::kOff;
  linalg::Vector x = solve_operating_point(system, system.initial_guess(),
                                           op_options, newton);

  // One column per unknown, in unknown order.
  std::vector<std::string> names;
  names.reserve(system.num_unknowns());
  for (std::size_t i = 0; i < system.num_unknowns(); ++i) {
    names.push_back(system.unknown_info(i).name);
  }
  Waveform wave(std::move(names));
  // Capacity hint: adaptive stepping settles near dt_max with bursts of
  // small steps after breakpoints.  Capped so wide circuits never
  // pre-commit more than a few MB before the first sample lands.
  {
    const double estimate = 2.0 * options.tstop / dt_max + 64.0;
    const std::size_t rows =
        static_cast<std::size_t>(std::min(estimate, 65536.0));
    const std::size_t row_cap =
        (std::size_t{1} << 20) / std::max<std::size_t>(wave.num_signals(), 1);
    wave.reserve(std::min(rows, std::max<std::size_t>(row_cap, 64)));
  }
  wave.append(0.0, x);

  const std::vector<double> breakpoints = system.breakpoints(options.tstop);
  std::size_t next_bp = 0;

  // Rolling history of the last few accepted points for the predictor:
  // the oldest of hist_n (1-3) points first.  Its vectors, the predictor
  // and the solution are reused from step to step.
  std::array<double, 3> hist_t{0.0, 0.0, 0.0};
  std::array<linalg::Vector, 3> hist_x{x, x, x};
  std::size_t hist_n = 1;
  auto push_history = [&](double t, const linalg::Vector& x) {
    if (hist_n == 3) {
      std::rotate(hist_t.begin(), hist_t.begin() + 1, hist_t.end());
      std::rotate(hist_x.begin(), hist_x.begin() + 1, hist_x.end());
    } else {
      ++hist_n;
    }
    hist_t[hist_n - 1] = t;
    hist_x[hist_n - 1] = x;
  };
  auto clear_history_to = [&](double t, const linalg::Vector& x) {
    hist_n = 1;
    hist_t[0] = t;
    hist_x[0] = x;
  };

  double t = 0.0;
  double dt = options.dt_initial;
  linalg::Vector guess;
  linalg::Vector x_new;

  // Last inner Newton failure, preserved so the terminal "dt below
  // dt_min" error can name the unknowns that refused to converge.
  ConvergenceDiagnostics last_diag;
  bool have_last_diag = false;

  util::ScopedTimer stepping_timer(report ? &report->metrics : nullptr,
                                   "phase.stepping");

  while (t < options.tstop - 1e-18 * options.tstop) {
    // Skip breakpoints at or behind the current time.  Distinct sources
    // sharing an edge (or edges within rounding of each other) would
    // otherwise leave a zero-length step behind after landing on the
    // first of the pair, which Waveform::append rejects as a repeated
    // axis value.
    while (next_bp < breakpoints.size() &&
           breakpoints[next_bp] - t <= 1e-21 + 1e-12 * t) {
      ++next_bp;
    }

    // Clamp the step to the next breakpoint / stop time.
    double dt_eff = std::min(dt, dt_max);
    bool lands_on_bp = false;
    if (next_bp < breakpoints.size()) {
      const double gap = breakpoints[next_bp] - t;
      if (dt_eff >= gap - 1e-21) {
        dt_eff = gap;
        lands_on_bp = true;
      }
    }
    if (t + dt_eff > options.tstop) {
      dt_eff = options.tstop - t;
      lands_on_bp = false;
    }

    const double t_new = t + dt_eff;

    extrapolate(hist_t, hist_x, hist_n, t_new, guess);
    bool solved = false;
    // With a report attached, solve into a local stats block and fold it
    // into the report afterwards; without one, count nothing.
    NewtonStats step_newton;
    try {
      x_new = newton.solve_plain(guess, AnalysisMode::kTransient, t_new,
                                 dt_eff, options.newton.gmin_final, 1.0,
                                 report ? &step_newton : nullptr);
      solved = true;
    } catch (const ConvergenceError& e) {
      solved = false;
      if (e.has_diagnostics()) {
        last_diag = *e.diagnostics();
        have_last_diag = true;
      }
      if (report && report->step_failures.size() < RunReport::kMaxRecords) {
        report->step_failures.push_back({t_new, dt_eff, e.what()});
      }
    }
    if (report) {
      report->newton.merge(step_newton);
      if (solved) report->record_newton_iterations(step_newton.iterations);
    }

    // LTE control needs the full three-point history for its quadratic
    // predictor.
    if (solved && hist_n == 3) {
      // LTE control: distance between the converged point and the
      // predictor, relative to per-unknown tolerance.
      double ratio = 0.0;
      std::size_t worst_unknown = 0;
      for (std::size_t i = 0; i < x_new.size(); ++i) {
        // Branch currents are excluded (standard SPICE practice): the
        // trapezoidal companion recurrence is marginally stable, so
        // source currents carry a non-decaying +-eps ripple that is not
        // truncation error and must not drive the step size.
        if (system.unknown_info(i).kind == UnknownKind::kBranchCurrent) {
          continue;
        }
        const double tol =
            options.lte_reltol * std::max(std::abs(x_new[i]), std::abs(x[i])) +
            10.0 * system.unknown_info(i).abstol;
        // A non-finite distance counts as failing: `r > ratio` would skip
        // a NaN.
        const double diff = x_new[i] - guess[i];
        const double r = std::isfinite(diff)
                             ? std::abs(diff) / tol
                             : std::numeric_limits<double>::infinity();
        if (r > ratio) {
          ratio = r;
          worst_unknown = i;
        }
      }
      if (ratio > options.reject_factor && dt_eff > options.dt_min) {
        if (report) {
          ++report->lte_reject_count;
          if (report->lte_rejects.size() < RunReport::kMaxRecords) {
            report->lte_rejects.push_back(
                {t_new, dt_eff, ratio, worst_unknown,
                 system.unknown_info(worst_unknown).name});
          }
        }
        dt = std::max(options.dt_min, dt_eff * 0.25);
        continue;  // reject; device state untouched since not accepted
      }
      // Smooth step adaptation (trapezoidal is 2nd order: exponent 1/3).
      const double grow =
          ratio > 0.0 ? 0.9 * std::pow(1.0 / ratio, 1.0 / 3.0) : 2.0;
      dt = dt_eff * std::clamp(grow, 0.25, 2.0);
    } else if (solved) {
      // Not enough history for LTE yet: grow gently.
      dt = dt_eff * 1.5;
    } else {
      if (report) ++report->newton_failures;
      const double dt_retry = dt_eff * 0.125;
      if (dt_retry < options.dt_min) {
        const std::string msg = "transient: step failed at t = " +
                                std::to_string(t) + " with dt below dt_min";
        if (have_last_diag) {
          ConvergenceDiagnostics diag = last_diag;
          diag.strategy = "transient-step";
          diag.time = t_new;
          diag.dt = dt_eff;
          throw ConvergenceError(msg, std::move(diag));
        }
        throw ConvergenceError(msg);
      }
      dt = dt_retry;
      continue;
    }
    dt = std::min(dt, dt_max);
    dt = std::max(dt, options.dt_min);

    const std::size_t shared =
        system.accept(x_new, AnalysisMode::kTransient, t_new, dt_eff);
    if (report) {
      ++report->accepted_steps;
      report->min_dt =
          report->min_dt == 0.0 ? dt_eff : std::min(report->min_dt, dt_eff);
      report->max_dt = std::max(report->max_dt, dt_eff);
      report->newton.shared_accepts += static_cast<std::int64_t>(shared);
    }
    wave.append(t_new, x_new);
    t = t_new;
    std::swap(x, x_new);

    if (lands_on_bp) {
      ++next_bp;
      system.notify_discontinuity();
      clear_history_to(t, x);
      // Full re-ramp from dt_initial.  The history reset disarms the
      // quadratic LTE check for two steps, so resuming at a fraction of
      // the pre-edge step instead (dt/8 was tried) takes a blind
      // backward-Euler step into the edge whose error enters device
      // companion state permanently (DESIGN.md §7e).
      dt = options.dt_initial;
    } else {
      push_history(t, x);
    }
  }
  return wave;
}

}  // namespace nemsim::spice
