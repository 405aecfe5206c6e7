#include "nemsim/spice/op.h"

#include "nemsim/spice/analyze.h"
#include "op_internal.h"

namespace nemsim::spice {

OpResult::OpResult(const MnaSystem& system, linalg::Vector x)
    : system_(&system), x_(std::move(x)) {
  // Copy the name tables so lookups survive the system (and circuit)
  // going out of scope; only solution() still needs the live system.
  const Circuit& ckt = system.circuit();
  node_unknown_.resize(ckt.num_nodes(), -1);
  for (std::size_t n = 0; n < ckt.num_nodes(); ++n) {
    const NodeId node{n};
    node_index_.emplace(ckt.node_name(node), n);
    if (node.is_ground()) continue;
    const UnknownId u = system.unknown_of(node);
    if (u.valid()) node_unknown_[n] = static_cast<std::ptrdiff_t>(u.index);
  }
  for (std::size_t i = 0; i < system.num_unknowns(); ++i) {
    unknown_index_.emplace(system.unknown_info(i).name, i);
  }
}

double OpResult::v(NodeId node) const {
  require(node.index < node_unknown_.size(), "OpResult::v: node out of range");
  const std::ptrdiff_t u = node_unknown_[node.index];
  return u < 0 ? 0.0 : x_[static_cast<std::size_t>(u)];
}

double OpResult::v(const std::string& node_name) const {
  auto it = node_index_.find(node_name);
  if (it == node_index_.end()) {
    throw NetlistError("unknown node '" + node_name + "'");
  }
  return v(NodeId{it->second});
}

double OpResult::value(const std::string& name) const {
  auto it = unknown_index_.find(name);
  if (it == unknown_index_.end()) {
    throw InvalidArgument("unknown signal '" + name + "'");
  }
  return x_[it->second];
}

double OpResult::x(UnknownId unknown) const {
  require(unknown.valid(), "OpResult::x: invalid unknown");
  return x_[unknown.index];
}

OpResult operating_point(MnaSystem& system, const OpOptions& options) {
  return operating_point_from(system, system.initial_guess(), options);
}

OpResult operating_point_from(MnaSystem& system, const linalg::Vector& x0,
                              const OpOptions& options) {
  NewtonSolver newton(system, options.newton);
  return OpResult(system, solve_operating_point(system, x0, options, newton));
}

linalg::Vector solve_operating_point(MnaSystem& system,
                                     const linalg::Vector& x0,
                                     const OpOptions& options,
                                     NewtonSolver& newton) {
  RunReport* report = options.report;
  // Strict mode throws LintError here — before the solver runs, so a
  // structurally singular circuit never enters the gmin/source homotopy
  // ladder.
  lint::lint_gate(system, options.lint, report);
  // Semantic gate (interval reachability, operating regions); strict
  // mode rejects on warnings here for the same fail-before-Newton reason.
  analyze::analyze_gate(system.circuit(), options.analyze, report);
  linalg::Vector x;
  try {
    util::ScopedTimer timer(report ? &report->metrics : nullptr, "phase.op");
    if (report) {
      if (report->analysis.empty()) report->analysis = "op";
      NewtonStats local;
      x = newton.solve(x0, AnalysisMode::kDcOperatingPoint, /*time=*/0.0,
                       /*dt=*/0.0, &local, report);
      report->newton.merge(local);
      report->record_newton_iterations(local.iterations);
    } else {
      x = newton.solve(x0, AnalysisMode::kDcOperatingPoint, /*time=*/0.0,
                       /*dt=*/0.0);
    }
  } catch (const ConvergenceError&) {
    if (report) ++report->newton_failures;
    throw;
  }
  const std::size_t shared =
      system.accept(x, AnalysisMode::kDcOperatingPoint, 0.0, 0.0);
  if (report) {
    report->newton.shared_accepts += static_cast<std::int64_t>(shared);
  }
  return x;
}

}  // namespace nemsim::spice
