// Shared companion-model helper for capacitive branches.
//
// Implements the trapezoidal integration companion with a backward-Euler
// restart after discontinuities (the standard SPICE recipe).  Used by the
// standalone Capacitor device and by the internal capacitances of the
// MOSFET and NEMFET models.
#pragma once

#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"

namespace nemsim::devices {

/// Companion state/stamps for one two-terminal capacitive branch.
///
/// In transient, stamps the Norton companion
///   i(v) = geq * (v - v0) - i0_term
/// where for trapezoidal geq = 2C/dt, i0_term = i0, and for backward Euler
/// geq = C/dt, i0_term = 0.  In DC the branch is an open circuit.
class CapCompanion {
 public:
  CapCompanion() = default;
  explicit CapCompanion(double capacitance) : c_(capacitance) {}

  double capacitance() const { return c_; }
  void set_capacitance(double c) { c_ = c; }

  /// Stamps KCL rows/Jacobian for the branch between roles p and n of
  /// the owner's role sink (role -1 = grounded terminal).  Declare the
  /// 2x2 (p, n) Jacobian block in the owner's descriptor for every
  /// non-ground role pair.  Forced inline for the reason given on
  /// spice::KernelSink.
  template <class Sink>
  [[gnu::always_inline]] void eval(const Sink& k, int p_role,
                                   int n_role) const {
    if (k.dc()) return;
    const double dt = k.dt();
    const double g = use_be_ ? c_ / dt : 2.0 * c_ / dt;
    const double v = k.xr(p_role) - k.xr(n_role);
    const double i = g * (v - v0_) - (use_be_ ? 0.0 : i0_);
    k.f(p_role, i);
    k.f(n_role, -i);
    k.J(p_role, p_role, g);
    k.J(p_role, n_role, -g);
    k.J(n_role, p_role, -g);
    k.J(n_role, n_role, g);
  }

  /// Commits state after a converged solve at branch voltage `v`.
  void accept(const spice::AcceptContext& ctx, double v) {
    if (ctx.mode() == spice::AnalysisMode::kDcOperatingPoint) {
      v0_ = v;
      i0_ = 0.0;
      use_be_ = true;  // self-start the first transient step
      return;
    }
    i0_ = current_at_accept(ctx.dt(), v);
    v0_ = v;
    use_be_ = false;
  }

  void reset() {
    v0_ = 0.0;
    i0_ = 0.0;
    use_be_ = true;
  }

  void discontinuity() { use_be_ = true; }

  /// Appends every member eval reads (the owner's twin_key).
  void twin_key(spice::TwinKey& key) const {
    key.add(c_);
    key.add(v0_);
    key.add(i0_);
    key.add(use_be_);
  }

 private:
  double current_at_accept(double dt, double v) const {
    return use_be_ ? c_ / dt * (v - v0_)
                   : 2.0 * c_ / dt * (v - v0_) - i0_;
  }

  double c_ = 0.0;
  double v0_ = 0.0;
  double i0_ = 0.0;
  bool use_be_ = true;
};

}  // namespace nemsim::devices
