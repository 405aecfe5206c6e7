#include "nemsim/spice/dcsweep.h"

#include "nemsim/spice/analyze.h"
#include "nemsim/util/error.h"
#include "nemsim/util/parallel.h"
#include "op_internal.h"

namespace nemsim::spice {

Waveform dc_sweep(MnaSystem& system,
                  const std::function<void(double)>& set_param,
                  std::span<const double> points,
                  const DcSweepOptions& options) {
  require(!points.empty(), "dc_sweep: no sweep points");

  std::vector<std::string> names;
  names.reserve(system.num_unknowns());
  for (std::size_t i = 0; i < system.num_unknowns(); ++i) {
    names.push_back(system.unknown_info(i).name);
  }
  Waveform wave(std::move(names));

  RunReport* report = options.report;
  if (report && report->analysis.empty()) report->analysis = "dc_sweep";

  // Lint once for the whole sweep; per-point ops must not lint again.
  lint::lint_gate(system, options.lint, report);
  analyze::analyze_gate(system.circuit(), options.analyze, report);

  // One Newton solver for every point: its symbolic LU, CSR skeleton and
  // iteration vectors carry from point to point, so a point costs a
  // numeric refactor, not a fresh factorization.
  NewtonSolver newton(system, options.newton);
  OpOptions op_options;
  op_options.report = report;
  op_options.forensics = options.forensics;
  op_options.lint = lint::LintMode::kOff;

  linalg::Vector start;
  bool have_previous = false;
  for (double value : points) {
    set_param(value);
    if (report) ++report->points;
    try {
      if (!(options.continuation && have_previous)) {
        start = system.initial_guess();
      }
      linalg::Vector x =
          solve_operating_point(system, start, op_options, newton, nullptr);
      wave.append(value, x);
      start = std::move(x);
      have_previous = true;
    } catch (const ConvergenceError& e) {
      if (report) {
        ++report->failed_points;
        report->add_note("dc_sweep: point " + std::to_string(value) +
                         " failed: " + e.what());
      }
      throw;
    }
  }
  return wave;
}

Waveform dc_sweep_parallel(
    const std::function<Circuit()>& make_circuit,
    const std::function<void(Circuit&, double)>& set_param,
    std::span<const double> points, const DcSweepOptions& options,
    std::size_t num_threads) {
  require(!points.empty(), "dc_sweep_parallel: no sweep points");

  RunReport* report = options.report;
  if (report && report->analysis.empty()) report->analysis = "dc_sweep";

  OpOptions op_options;
  // The gate below lints the reference instance once, before any worker
  // starts; per-point worker ops must not lint (or log) again.
  op_options.lint = lint::LintMode::kOff;

  // Name table from a reference instance; every task builds the same
  // topology, so the unknown layout is identical across points.
  std::vector<std::string> names;
  {
    Circuit reference = make_circuit();
    MnaSystem system(reference);
    lint::lint_gate(system, options.lint, report);
    analyze::analyze_gate(system.circuit(), options.analyze, report);
    names.reserve(system.num_unknowns());
    for (std::size_t i = 0; i < system.num_unknowns(); ++i) {
      names.push_back(system.unknown_info(i).name);
    }
  }

  // Workers solve into per-task stats blocks (RunReport is not safe for
  // concurrent mutation); the report is folded together after the join,
  // in input order, so its contents are thread-count independent.
  struct PointResult {
    linalg::Vector x;
    NewtonStats newton;
  };
  const std::vector<PointResult> solutions = util::parallel_map(
      points.size(),
      [&](std::size_t i) {
        Circuit circuit = make_circuit();
        set_param(circuit, points[i]);
        MnaSystem system(circuit);
        NewtonSolver newton(system, options.newton);
        PointResult result;
        result.x = solve_operating_point(system, system.initial_guess(),
                                         op_options, newton,
                                         report ? &result.newton : nullptr);
        return result;
      },
      num_threads);

  Waveform wave(std::move(names));
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (report) {
      ++report->points;
      report->newton.merge(solutions[i].newton);
      report->record_newton_iterations(solutions[i].newton.iterations);
    }
    wave.append(points[i], solutions[i].x);
  }
  return wave;
}

std::vector<double> linspace(double first, double last, std::size_t count) {
  require(count >= 2, "linspace: need at least two points");
  std::vector<double> out(count);
  const double step = (last - first) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = first + step * static_cast<double>(i);
  }
  out.back() = last;
  return out;
}

}  // namespace nemsim::spice
