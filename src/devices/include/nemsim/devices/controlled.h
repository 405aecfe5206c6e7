// Linear controlled sources: VCVS (E) and VCCS (G).
#pragma once

#include <array>

#include "nemsim/spice/device.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"

namespace nemsim::devices {

/// Voltage-controlled voltage source: v(p,n) = gain * v(cp,cn).
class Vcvs : public spice::Device {
 public:
  Vcvs(std::string name, spice::NodeId p, spice::NodeId n, spice::NodeId cp,
       spice::NodeId cn, double gain);

  spice::UnknownId branch() const { return branch_; }
  void set_gain(double gain) { gain_ = gain; }

  void setup(spice::SetupContext& ctx) override;
  void stamp(spice::StampContext& ctx) const override;
  void kernel_descriptor(const spice::KernelLayout& layout,
                         spice::KernelDescriptor& out) const override;
  /// Roles: 0 = p, 1 = n, 2 = cp, 3 = cn, 4 = branch current.
  std::array<spice::UnknownId, 5> role_unknowns(
      const spice::KernelLayout& layout) const {
    return {layout.of(p_), layout.of(n_), layout.of(cp_), layout.of(cn_),
            layout.of(branch_)};
  }
  /// Residual and Jacobian, written once for both role sinks.
  template <class Sink>
  void eval(const Sink& k) const;
  bool is_linear() const override { return true; }
  void stamp_ac(spice::AcStampContext& ctx) const override;
  bool has_ac_model() const override { return true; }
  spice::DeviceTopology topology() const override;
  void interval_transfer(const analyze::IntervalSet& nodes,
                         std::vector<analyze::NodeClaim>& out) const override;
  std::string netlist_line(
      const std::function<std::string(spice::NodeId)>& node_namer)
      const override;

 private:
  spice::NodeId p_, n_, cp_, cn_;
  double gain_;
  spice::UnknownId branch_;
};

/// Voltage-controlled current source: i(p->n) = gm * v(cp,cn).
class Vccs : public spice::Device {
 public:
  Vccs(std::string name, spice::NodeId p, spice::NodeId n, spice::NodeId cp,
       spice::NodeId cn, double gm);

  void set_gm(double gm) { gm_ = gm; }

  void stamp(spice::StampContext& ctx) const override;
  void kernel_descriptor(const spice::KernelLayout& layout,
                         spice::KernelDescriptor& out) const override;
  /// Roles: 0 = p, 1 = n, 2 = cp, 3 = cn.
  std::array<spice::UnknownId, 4> role_unknowns(
      const spice::KernelLayout& layout) const {
    return {layout.of(p_), layout.of(n_), layout.of(cp_), layout.of(cn_)};
  }
  /// Residual and Jacobian, written once for both role sinks.
  template <class Sink>
  void eval(const Sink& k) const;
  bool is_linear() const override { return true; }
  void stamp_ac(spice::AcStampContext& ctx) const override;
  bool has_ac_model() const override { return true; }
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
  spice::NodeId p_, n_, cp_, cn_;
  double gm_;
};

}  // namespace nemsim::devices
