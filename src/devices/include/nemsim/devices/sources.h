// Independent sources and their waveform descriptions.
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "nemsim/spice/device.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"
#include "nemsim/spice/parambank.h"

namespace nemsim::devices {

/// Time-dependent source value: DC, PULSE, PWL or SIN (SPICE semantics).
class SourceWave {
 public:
  /// Constant value.
  static SourceWave dc(double value);

  /// SPICE PULSE(v1 v2 delay rise fall width period).  `period` of 0
  /// means a single pulse.
  static SourceWave pulse(double v1, double v2, double delay, double rise,
                          double fall, double width, double period = 0.0);

  /// Piecewise-linear through (time, value) points; clamped outside.
  static SourceWave pwl(std::vector<std::pair<double, double>> points);

  /// offset + amplitude * sin(2*pi*freq*(t - delay)) for t >= delay.
  static SourceWave sine(double offset, double amplitude, double freq,
                         double delay = 0.0);

  /// Value at time `t`.
  double value(double t) const;

  /// True for waveforms built with dc(); those mirror into the parameter
  /// bank so sweeps can retune the level without replacing the waveform.
  bool is_dc() const { return kind_ == Kind::kDc; }
  /// The constant level of a DC waveform (meaningless otherwise).
  double dc_value() const { return v1_; }

  /// Time points where the derivative is discontinuous, within (0, tstop].
  void breakpoints(double tstop, std::vector<double>& out) const;

  /// SPICE-syntax description: "DC 1.2", "PULSE(0 1.2 1n ...)", ...
  std::string to_spice() const;

  /// Largest |value(t)| over all t >= 0 (exact per waveform kind); used
  /// by the lint pass to infer the supply rail.
  double max_abs_value() const;

  /// Range {lo, hi} of value(t) over all t >= 0 (exact per waveform
  /// kind); feeds the analyzer's DC interval relations.
  std::pair<double, double> value_range() const;

 private:
  enum class Kind { kDc, kPulse, kPwl, kSine };
  SourceWave() = default;

  Kind kind_ = Kind::kDc;
  // DC / common
  double v1_ = 0.0;
  // PULSE
  double v2_ = 0.0, delay_ = 0.0, rise_ = 0.0, fall_ = 0.0, width_ = 0.0,
         period_ = 0.0;
  // SIN
  double freq_ = 0.0;
  // PWL
  std::vector<std::pair<double, double>> points_;
};

/// Independent voltage source (carries a branch-current unknown whose
/// value is the current flowing from p through the source to n).
class VoltageSource : public spice::Device {
 public:
  VoltageSource(std::string name, spice::NodeId p, spice::NodeId n,
                SourceWave wave);

  /// Replaces the waveform (used by DC sweeps via set_dc).
  void set_wave(SourceWave wave) {
    wave_ = std::move(wave);
    if (wave_.is_dc()) dc_level_.set(wave_.dc_value());
  }
  void set_dc(double value) {
    wave_ = SourceWave::dc(value);
    dc_level_.set(value);
  }
  double value(double t) const { return wave_.value(t); }
  /// Bank slot ("v.dc"); tracks the level only while the wave is DC.
  spice::ParamSlot dc_slot() const { return dc_level_.slot(); }

  void bind_params(spice::ParamBank& bank) override;
  /// A bank write retunes a DC level; shaped waveforms are untouched.
  void on_params_changed() override {
    if (wave_.is_dc()) wave_ = SourceWave::dc(dc_level_.get());
  }

  /// Branch unknown: i(name), the current from p to n through the source.
  spice::UnknownId branch() const { return branch_; }

  /// AC excitation phasor (magnitude in volts, phase in degrees); zero by
  /// default so the source is AC-quiet.
  void set_ac(double magnitude, double phase_deg = 0.0) {
    ac_magnitude_ = magnitude;
    ac_phase_deg_ = phase_deg;
  }

  void setup(spice::SetupContext& ctx) override;
  void stamp(spice::StampContext& ctx) const override;
  void kernel_descriptor(const spice::KernelLayout& layout,
                         spice::KernelDescriptor& out) const override;
  /// Roles: 0 = p, 1 = n, 2 = branch current.
  std::array<spice::UnknownId, 3> role_unknowns(
      const spice::KernelLayout& layout) const {
    return {layout.of(p_), layout.of(n_), layout.of(branch_)};
  }
  /// Residual and Jacobian, written once for both role sinks.
  template <class Sink>
  void eval(const Sink& k) const;
  bool is_linear() const override { return true; }
  void stamp_ac(spice::AcStampContext& ctx) const override;
  bool has_ac_model() const override { return true; }
  void breakpoints(double tstop, std::vector<double>& out) const override;
  spice::DeviceTopology topology() const override;
  void interval_transfer(const analyze::IntervalSet& nodes,
                         std::vector<analyze::NodeClaim>& out) const override;
  std::string netlist_line(
      const std::function<std::string(spice::NodeId)>& node_namer)
      const override;

 private:
  spice::NodeId p_, n_;
  SourceWave wave_;
  spice::BankedParam dc_level_{0.0};
  spice::UnknownId branch_;
  double ac_magnitude_ = 0.0;
  double ac_phase_deg_ = 0.0;
};

/// Independent current source pushing `value(t)` from p to n externally
/// (i.e. current leaves node p, enters node n inside the source).
class CurrentSource : public spice::Device {
 public:
  CurrentSource(std::string name, spice::NodeId p, spice::NodeId n,
                SourceWave wave);

  void set_wave(SourceWave wave) {
    wave_ = std::move(wave);
    if (wave_.is_dc()) dc_level_.set(wave_.dc_value());
  }
  void set_dc(double value) {
    wave_ = SourceWave::dc(value);
    dc_level_.set(value);
  }
  /// Bank slot ("i.dc"); tracks the level only while the wave is DC.
  spice::ParamSlot dc_slot() const { return dc_level_.slot(); }

  void bind_params(spice::ParamBank& bank) override;
  void on_params_changed() override {
    if (wave_.is_dc()) wave_ = SourceWave::dc(dc_level_.get());
  }

  /// AC excitation phasor (amperes / degrees); zero by default.
  void set_ac(double magnitude, double phase_deg = 0.0) {
    ac_magnitude_ = magnitude;
    ac_phase_deg_ = phase_deg;
  }

  void stamp(spice::StampContext& ctx) const override;
  void kernel_descriptor(const spice::KernelLayout& layout,
                         spice::KernelDescriptor& out) const override;
  /// Roles: 0 = p, 1 = n.
  std::array<spice::UnknownId, 2> role_unknowns(
      const spice::KernelLayout& layout) const {
    return {layout.of(p_), layout.of(n_)};
  }
  /// Residual and Jacobian, written once for both role sinks.
  template <class Sink>
  void eval(const Sink& k) const;
  bool is_linear() const override { return true; }
  void stamp_ac(spice::AcStampContext& ctx) const override;
  bool has_ac_model() const override { return true; }
  void breakpoints(double tstop, std::vector<double>& out) const override;
  spice::DeviceTopology topology() const override;
  /// A current-defined branch constrains no node voltage: claim nothing.
  void interval_transfer(const analyze::IntervalSet& nodes,
                         std::vector<analyze::NodeClaim>& out) const override {
    (void)nodes;
    (void)out;
  }
  std::string netlist_line(
      const std::function<std::string(spice::NodeId)>& node_namer)
      const override;

 private:
  spice::NodeId p_, n_;
  SourceWave wave_;
  spice::BankedParam dc_level_{0.0};
  double ac_magnitude_ = 0.0;
  double ac_phase_deg_ = 0.0;
};

}  // namespace nemsim::devices
