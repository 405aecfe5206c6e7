// Linear passive devices: resistor, capacitor, inductor.
#pragma once

#include <array>

#include "nemsim/devices/companion.h"
#include "nemsim/spice/device.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"
#include "nemsim/spice/parambank.h"

namespace nemsim::devices {

/// Ideal linear resistor between nodes p and n.
class Resistor : public spice::Device {
 public:
  Resistor(std::string name, spice::NodeId p, spice::NodeId n,
           double resistance);

  double resistance() const { return r_.get(); }
  void set_resistance(double r);
  /// Bank slot ("r.resistance"); invalid until added to a Circuit.
  spice::ParamSlot resistance_slot() const { return r_.slot(); }

  void bind_params(spice::ParamBank& bank) override;
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
  void stamp_ac(spice::AcStampContext& ctx) const override;
  bool has_ac_model() const override { return true; }
  bool is_linear() const override { return true; }
  spice::DeviceTopology topology() const override;
  void interval_transfer(const analyze::IntervalSet& nodes,
                         std::vector<analyze::NodeClaim>& out) const override;
  void self_check(const lint::DeviceCheckContext& ctx,
                  std::vector<lint::LintFinding>& out) const override;
  std::string netlist_line(
      const std::function<std::string(spice::NodeId)>& node_namer)
      const override;

 private:
  spice::NodeId p_, n_;
  spice::BankedParam r_;
};

/// Ideal linear capacitor; open in DC, trapezoidal companion in transient.
class Capacitor : public spice::Device {
 public:
  Capacitor(std::string name, spice::NodeId p, spice::NodeId n,
            double capacitance);

  double capacitance() const { return companion_.capacitance(); }
  void set_capacitance(double c) {
    c_.set(c);
    companion_.set_capacitance(c);
  }
  /// Bank slot ("c.capacitance"); invalid until added to a Circuit.
  spice::ParamSlot capacitance_slot() const { return c_.slot(); }

  void bind_params(spice::ParamBank& bank) override;
  /// The companion model mirrors the banked capacitance; resync it.
  void on_params_changed() override {
    companion_.set_capacitance(c_.get());
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
  void eval(const Sink& k) const {
    companion_.eval(k, 0, 1);
  }
  bool is_linear() const override { return true; }
  void accept_step(const spice::AcceptContext& ctx) override;
  void reset_state() override;
  void stamp_ac(spice::AcStampContext& ctx) const override;
  bool has_ac_model() const override { return true; }
  spice::DeviceTopology topology() const override;
  /// Open in DC: nothing to claim about node voltages.
  void interval_transfer(const analyze::IntervalSet& nodes,
                         std::vector<analyze::NodeClaim>& out) const override {
    (void)nodes;
    (void)out;
  }
  void self_check(const lint::DeviceCheckContext& ctx,
                  std::vector<lint::LintFinding>& out) const override;
  std::string netlist_line(
      const std::function<std::string(spice::NodeId)>& node_namer)
      const override;
  void notify_discontinuity() override;

 private:
  spice::NodeId p_, n_;
  /// Authoritative value; companion_ holds a mirror used by the stamps.
  spice::BankedParam c_;
  CapCompanion companion_;
};

/// Ideal linear inductor; short in DC, trapezoidal companion in transient.
/// Carries a branch-current unknown.
class Inductor : public spice::Device {
 public:
  Inductor(std::string name, spice::NodeId p, spice::NodeId n,
           double inductance);

  double inductance() const { return l_; }
  spice::UnknownId branch() const { return branch_; }

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
  void accept_step(const spice::AcceptContext& ctx) override;
  void reset_state() override;
  void stamp_ac(spice::AcStampContext& ctx) const override;
  bool has_ac_model() const override { return true; }
  spice::DeviceTopology topology() const override;
  void interval_transfer(const analyze::IntervalSet& nodes,
                         std::vector<analyze::NodeClaim>& out) const override;
  void self_check(const lint::DeviceCheckContext& ctx,
                  std::vector<lint::LintFinding>& out) const override;
  std::string netlist_line(
      const std::function<std::string(spice::NodeId)>& node_namer)
      const override;
  void notify_discontinuity() override;

 private:
  spice::NodeId p_, n_;
  double l_;
  spice::UnknownId branch_;
  double i0_ = 0.0;   // accepted branch current
  double vl0_ = 0.0;  // accepted inductor voltage
  bool use_be_ = true;
};

}  // namespace nemsim::devices
