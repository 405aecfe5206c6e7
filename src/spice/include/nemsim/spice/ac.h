// AC (small-signal) analysis.
//
// Linearizes the circuit at a DC operating point into
//   (G + j*omega*C) x = b(omega)
// where G holds conductances/couplings (d f / d x at the bias point) and
// C holds charge/flux/momentum storage (d f / d x').  Devices contribute
// through Device::stamp_ac.  For the NEMFET the mechanical rows carry the
// beam's mass and damping, so the AC response exhibits the
// electromechanical resonance (the RSG-MOSFET resonator of the paper's
// ref [22]).
#pragma once

#include <complex>
#include <span>
#include <string>
#include <vector>

#include "nemsim/linalg/complex.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/op.h"

namespace nemsim::spice {

/// Stamping interface for AC: G entries (conductance), C entries
/// (capacitance/mass), and the complex excitation vector.
class AcStampContext {
 public:
  AcStampContext(const MnaSystem& system, const Solution& bias,
                 linalg::Matrix& g, linalg::Matrix& c, linalg::CVector& rhs);

  /// DC bias values from the operating point.
  double v(NodeId node) const { return bias_.v(node); }
  double x(UnknownId unknown) const { return bias_.x(unknown); }

  void add_G(NodeId eq, NodeId var, double value);
  void add_G(NodeId eq, UnknownId var, double value);
  void add_G(UnknownId eq, NodeId var, double value);
  void add_G(UnknownId eq, UnknownId var, double value);

  void add_C(NodeId eq, NodeId var, double value);
  void add_C(NodeId eq, UnknownId var, double value);
  void add_C(UnknownId eq, NodeId var, double value);
  void add_C(UnknownId eq, UnknownId var, double value);

  void add_rhs(NodeId eq, linalg::Complex value);
  void add_rhs(UnknownId eq, linalg::Complex value);

  /// Stamps a two-terminal conductance (the common quad pattern).
  void stamp_conductance(NodeId p, NodeId n, double g);
  /// Stamps a two-terminal capacitance.
  void stamp_capacitance(NodeId p, NodeId n, double c);

 private:
  void raw(linalg::Matrix& m, UnknownId eq, UnknownId var, double value);

  const MnaSystem& system_;
  const Solution& bias_;
  linalg::Matrix& g_;
  linalg::Matrix& c_;
  linalg::CVector& rhs_;
};

/// Newton settings (for the embedded operating-point solve), report
/// sink, and the lint and analyze gates live in the shared AnalysisCommon
/// base (nemsim/spice/analysis.h).  The lint gate runs once before the
/// bias-point solve, which itself does not lint again.
struct AcOptions : AnalysisCommon {};

/// Frequency-sweep result: complex value of every unknown per frequency.
/// Owns its signal-name table, so it stays valid after the MnaSystem that
/// produced it is gone.
class AcResult {
 public:
  AcResult(std::vector<std::string> signal_names, std::vector<double> freqs);

  const std::vector<double>& frequencies() const { return freqs_; }
  std::size_t num_points() const { return freqs_.size(); }

  /// Complex phasor of signal `name` at frequency index k.
  linalg::Complex at(const std::string& name, std::size_t k) const;
  double magnitude(const std::string& name, std::size_t k) const;
  double magnitude_db(const std::string& name, std::size_t k) const;
  double phase_deg(const std::string& name, std::size_t k) const;

  /// Full magnitude series of one signal.
  std::vector<double> magnitude_series(const std::string& name) const;

  // Filled by ac_analysis.
  void append_point(const linalg::CVector& x);

 private:
  std::size_t signal_index(const std::string& name) const;

  std::vector<std::string> names_;
  std::vector<double> freqs_;
  std::vector<linalg::CVector> data_;
};

/// Runs an AC sweep about the circuit's operating point.  Excitations
/// come from sources with a nonzero AC magnitude (`set_ac`).
AcResult ac_analysis(MnaSystem& system, std::span<const double> frequencies,
                     const AcOptions& options = {});

/// Logarithmically spaced frequency points, inclusive of both decades.
std::vector<double> logspace(double f_first, double f_last,
                             std::size_t points_total);

}  // namespace nemsim::spice
