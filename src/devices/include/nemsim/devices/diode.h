// Junction diode with exponential I-V and overflow-safe linearization.
#pragma once

#include <array>

#include "nemsim/spice/device.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"

namespace nemsim::devices {

struct DiodeParams {
  double is = 1e-14;        ///< saturation current (A)
  double n = 1.0;           ///< ideality factor
  double temp = 300.0;      ///< K
  double gmin_shunt = 1e-15;///< parallel conductance (aids convergence)
};

/// Ideal-law diode from anode to cathode:
///   i = Is (exp(v / (n vt)) - 1) + gmin_shunt * v
/// Above ~40 thermal voltages the exponential is continued linearly so
/// intermediate Newton iterates cannot overflow.
class Diode : public spice::Device {
 public:
  Diode(std::string name, spice::NodeId anode, spice::NodeId cathode,
        DiodeParams params = {});

  const DiodeParams& params() const { return params_; }

  /// Model evaluation (exposed for tests): current and conductance at v.
  void evaluate(double v, double& i, double& g) const;

  void stamp(spice::StampContext& ctx) const override;
  void kernel_descriptor(const spice::KernelLayout& layout,
                         spice::KernelDescriptor& out) const override;
  /// Roles: 0 = anode, 1 = cathode.
  std::array<spice::UnknownId, 2> role_unknowns(
      const spice::KernelLayout& layout) const {
    return {layout.of(anode_), layout.of(cathode_)};
  }
  /// Residual and Jacobian, written once for both role sinks.
  template <class Sink>
  void eval(const Sink& k) const;
  void stamp_ac(spice::AcStampContext& ctx) const override;
  bool has_ac_model() const override { return true; }
  spice::DeviceTopology topology() const override;
  void interval_transfer(const analyze::IntervalSet& nodes,
                         std::vector<analyze::NodeClaim>& out) const override;
  void interval_check(const analyze::IntervalSet& nodes,
                      std::vector<analyze::RegionVerdict>& out) const override;
  void self_check(const lint::DeviceCheckContext& ctx,
                  std::vector<lint::LintFinding>& out) const override;
  std::string netlist_line(
      const std::function<std::string(spice::NodeId)>& node_namer)
      const override;

 private:
  spice::NodeId anode_, cathode_;
  DiodeParams params_;
};

}  // namespace nemsim::devices
