#include "nemsim/spice/dcsweep.h"

#include "nemsim/spice/analyze.h"
#include "nemsim/util/error.h"
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
  op_options.lint = lint::LintMode::kOff;

  // Continuation: the first point starts from the initial guess (read
  // after set_param, which may move it), every later one from the
  // previous solution.
  linalg::Vector start;
  for (double value : points) {
    set_param(value);
    if (report) ++report->points;
    try {
      if (start.empty()) start = system.initial_guess();
      linalg::Vector x =
          solve_operating_point(system, start, op_options, newton);
      wave.append(value, x);
      start = std::move(x);
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
