#include "nemsim/spice/ac.h"

#include <cmath>
#include <numbers>

#include "nemsim/spice/analyze.h"
#include "nemsim/util/error.h"

namespace nemsim::spice {

// Default for devices that never implemented an AC model.  ac_analysis
// normally rejects such devices before the bias solve (see the
// "ac-incapable-device" scan below); this throw only fires for a device
// that overrides has_ac_model() without overriding stamp_ac.
void Device::stamp_ac(AcStampContext& ctx) const {
  (void)ctx;
  throw InvalidArgument("AC analysis, small-signal assembly phase: device '" +
                        name() +
                        "' has no AC model (stamp_ac not implemented)");
}

// --------------------------------------------------------- AcStampContext

AcStampContext::AcStampContext(const MnaSystem& system, const Solution& bias,
                               linalg::Matrix& g, linalg::Matrix& c,
                               linalg::CVector& rhs)
    : system_(system), bias_(bias), g_(g), c_(c), rhs_(rhs) {}

void AcStampContext::raw(linalg::Matrix& m, UnknownId eq, UnknownId var,
                         double value) {
  if (!eq.valid() || !var.valid()) return;
  m(eq.index, var.index) += value;
}

void AcStampContext::add_G(NodeId eq, NodeId var, double value) {
  raw(g_, system_.unknown_of(eq), system_.unknown_of(var), value);
}
void AcStampContext::add_G(NodeId eq, UnknownId var, double value) {
  raw(g_, system_.unknown_of(eq), var, value);
}
void AcStampContext::add_G(UnknownId eq, NodeId var, double value) {
  raw(g_, eq, system_.unknown_of(var), value);
}
void AcStampContext::add_G(UnknownId eq, UnknownId var, double value) {
  raw(g_, eq, var, value);
}

void AcStampContext::add_C(NodeId eq, NodeId var, double value) {
  raw(c_, system_.unknown_of(eq), system_.unknown_of(var), value);
}
void AcStampContext::add_C(NodeId eq, UnknownId var, double value) {
  raw(c_, system_.unknown_of(eq), var, value);
}
void AcStampContext::add_C(UnknownId eq, NodeId var, double value) {
  raw(c_, eq, system_.unknown_of(var), value);
}
void AcStampContext::add_C(UnknownId eq, UnknownId var, double value) {
  raw(c_, eq, var, value);
}

void AcStampContext::add_rhs(NodeId eq, linalg::Complex value) {
  add_rhs(system_.unknown_of(eq), value);
}
void AcStampContext::add_rhs(UnknownId eq, linalg::Complex value) {
  if (!eq.valid()) return;
  rhs_[eq.index] += value;
}

void AcStampContext::stamp_conductance(NodeId p, NodeId n, double g) {
  add_G(p, p, g);
  add_G(p, n, -g);
  add_G(n, p, -g);
  add_G(n, n, g);
}

void AcStampContext::stamp_capacitance(NodeId p, NodeId n, double c) {
  add_C(p, p, c);
  add_C(p, n, -c);
  add_C(n, p, -c);
  add_C(n, n, c);
}

// --------------------------------------------------------------- AcResult

AcResult::AcResult(std::vector<std::string> signal_names,
                   std::vector<double> freqs)
    : names_(std::move(signal_names)), freqs_(std::move(freqs)) {}

std::size_t AcResult::signal_index(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  throw MeasurementError("AcResult: no signal named '" + name + "'");
}

void AcResult::append_point(const linalg::CVector& x) {
  require(data_.size() < freqs_.size(), "AcResult: too many points");
  data_.push_back(x);
}

linalg::Complex AcResult::at(const std::string& name, std::size_t k) const {
  require(k < data_.size(), "AcResult::at: index out of range");
  return data_[k][signal_index(name)];
}

double AcResult::magnitude(const std::string& name, std::size_t k) const {
  return std::abs(at(name, k));
}

double AcResult::magnitude_db(const std::string& name, std::size_t k) const {
  return 20.0 * std::log10(std::max(magnitude(name, k), 1e-300));
}

double AcResult::phase_deg(const std::string& name, std::size_t k) const {
  return std::arg(at(name, k)) * 180.0 / std::numbers::pi;
}

std::vector<double> AcResult::magnitude_series(const std::string& name) const {
  std::vector<double> out(data_.size());
  for (std::size_t k = 0; k < data_.size(); ++k) out[k] = magnitude(name, k);
  return out;
}

// ------------------------------------------------------------ ac_analysis

AcResult ac_analysis(MnaSystem& system, std::span<const double> frequencies,
                     const AcOptions& options) {
  require(!frequencies.empty(), "ac_analysis: no frequencies");
  for (double f : frequencies) {
    require(f > 0.0, "ac_analysis: frequencies must be positive");
  }

  // Lint once at analysis entry; the embedded bias-point op is gated off.
  lint::lint_gate(system, options.lint, options.report);
  analyze::analyze_gate(system.circuit(), options.analyze, options.report);

  // AC capability scan, before any Newton work: every device must carry a
  // small-signal model or the assembly after the (possibly expensive)
  // bias solve would die mid-stamp with no analysis context.  Findings
  // use the lint rule id "ac-incapable-device" so report consumers see
  // them next to the structural findings.
  {
    std::vector<std::string> incapable;
    const Circuit& ckt = system.circuit();
    for (std::size_t i = 0; i < ckt.num_devices(); ++i) {
      const Device& dev = ckt.device(i);
      if (dev.has_ac_model()) continue;
      incapable.push_back(dev.name());
      if (options.report != nullptr) {
        options.report->lint_findings.push_back(
            {lint::LintSeverity::kError, "ac-incapable-device", dev.name(),
             "device '" + dev.name() +
                 "' has no AC small-signal model (stamp_ac not "
                 "implemented); it cannot take part in an AC analysis"});
      }
    }
    if (!incapable.empty()) {
      std::string what =
          "AC analysis, pre-solve capability check: " +
          std::to_string(incapable.size()) +
          " device(s) have no AC small-signal model:";
      for (const std::string& name : incapable) what += " '" + name + "'";
      throw InvalidArgument(what);
    }
  }

  // Bias the circuit.
  OpOptions op_options;
  op_options.newton = options.newton;
  op_options.report = options.report;
  op_options.lint = lint::LintMode::kOff;
  OpResult op = operating_point(system, op_options);
  Solution bias = op.solution();

  // Assemble frequency-independent G and C once.
  const std::size_t n = system.num_unknowns();
  linalg::Matrix g(n, n), c(n, n);
  linalg::CVector rhs(n);
  AcStampContext ctx(system, bias, g, c, rhs);
  const Circuit& circuit = system.circuit();
  for (std::size_t i = 0; i < circuit.num_devices(); ++i) {
    circuit.device(i).stamp_ac(ctx);
  }

  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back(system.unknown_info(i).name);
  }
  AcResult result(std::move(names), {frequencies.begin(), frequencies.end()});
  for (double f : frequencies) {
    const double omega = 2.0 * std::numbers::pi * f;
    linalg::CMatrix a = linalg::CMatrix::from_real_pair(g, c, omega);
    result.append_point(linalg::solve(std::move(a), rhs));
  }
  return result;
}

std::vector<double> logspace(double f_first, double f_last,
                             std::size_t points_total) {
  require(f_first > 0.0 && f_last > f_first, "logspace: bad range");
  require(points_total >= 2, "logspace: need at least two points");
  std::vector<double> out(points_total);
  const double l0 = std::log10(f_first);
  const double l1 = std::log10(f_last);
  for (std::size_t i = 0; i < points_total; ++i) {
    out[i] = std::pow(10.0, l0 + (l1 - l0) * static_cast<double>(i) /
                                static_cast<double>(points_total - 1));
  }
  return out;
}

}  // namespace nemsim::spice
