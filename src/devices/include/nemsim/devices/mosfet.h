// Bulk-CMOS MOSFET compact model (smooth EKV interpolation).
//
// Calibrated by the tech layer to the paper's Table 1 targets
// (Ion = 1110 uA/um, Ioff = 50 nA/um at Vdd = 1.2 V, 90 nm).
// Capacitances are bias-independent Meyer-style lumps — sufficient for
// the delay/power *trends* the paper studies, and far kinder to Newton.
#pragma once

#include <array>

#include "nemsim/devices/companion.h"
#include "nemsim/devices/ekv.h"
#include "nemsim/spice/device.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"
#include "nemsim/spice/parambank.h"

namespace nemsim::devices {

enum class MosPolarity { kNmos, kPmos };

/// Card-level (technology) MOSFET parameters; geometry is per-instance.
struct MosParams {
  double vth0 = 0.25;      ///< zero-bias threshold magnitude (V)
  double n = 1.35;         ///< subthreshold slope factor
  double kp = 350e-6;      ///< transconductance parameter (A/V^2)
  double lambda = 0.06;    ///< channel-length modulation (1/V)
  double eta_dibl = 0.04;  ///< DIBL coefficient (V/V)
  double cox_area = 0.022; ///< gate capacitance per area (F/m^2)
  double cov = 3e-10;      ///< overlap capacitance per width (F/m)
  double cj = 8e-10;       ///< junction capacitance per width (F/m)
  double goff = 0.0;       ///< drain-source leakage floor per width (S/m)
  double temp = 300.0;     ///< K
};

/// Four-terminal-less (bulk-tied) MOSFET between drain/gate/source nodes.
class Mosfet : public spice::Device {
 public:
  Mosfet(std::string name, spice::NodeId drain, spice::NodeId gate,
         spice::NodeId source, MosPolarity polarity, MosParams params,
         double width, double length);

  MosPolarity polarity() const { return polarity_; }
  const MosParams& params() const { return params_; }
  double width() const { return w_.get(); }
  double length() const { return l_; }

  /// Resizes the device (keeper sweeps); updates capacitances.
  void set_width(double width);

  /// Monte-Carlo threshold shift, added to the threshold magnitude.
  void set_vth_shift(double dv) { vth_shift_.set(dv); }
  double vth_shift() const { return vth_shift_.get(); }

  /// Bank slots of the tunable scalars ("mos.vth_shift" / "mos.w");
  /// invalid until the device is added to a Circuit.
  spice::ParamSlot vth_shift_slot() const { return vth_shift_.slot(); }
  spice::ParamSlot width_slot() const { return w_.slot(); }

  /// Model evaluation in canonical polarity (vgs/vds as magnitudes, i.e.
  /// for PMOS pass |vgs|, |vds|).  Exposed for calibration and tests.
  double drain_current(double vgs, double vds) const;

  void bind_params(spice::ParamBank& bank) override;
  void on_params_changed() override;
  void stamp(spice::StampContext& ctx) const override;
  void kernel_descriptor(const spice::KernelLayout& layout,
                         spice::KernelDescriptor& out) const override;
  /// Roles: 0 = drain, 1 = gate, 2 = source.
  std::array<spice::UnknownId, 3> role_unknowns(
      const spice::KernelLayout& layout) const {
    return {layout.of(d_), layout.of(g_), layout.of(s_)};
  }
  /// Residual and Jacobian, written once for both role sinks.
  template <class Sink>
  void eval(const Sink& k) const;
  /// Every member eval reads, for exact sharing between identical devices
  /// (DESIGN.md §7k): the card, polarity, geometry, Vth shift and the
  /// four companion states.
  void twin_key(spice::TwinKey& key) const;
  /// Takes over the state `twin` committed in the same accept: its four
  /// companion states.  Exact when both devices had equal twin_keys and
  /// equal accepted role values (MnaSystem::accept, DESIGN.md §7k).
  void adopt_state(const Mosfet& twin);
  void accept_step(const spice::AcceptContext& ctx) override;
  void reset_state() override;
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
  void notify_discontinuity() override;

 private:
  void refresh_capacitances();
  /// Moves the circuit's mutation generation (spice::ParamBank::touch).
  /// Every mutator of a member that twin_key lists calls it, unless it
  /// writes the bank, which moves the generation itself.
  void touch() const { w_.touch(); }
  /// EKV channel parameters at the current width and threshold shift.
  ekv::ChannelParams channel_params() const;

  spice::NodeId d_, g_, s_;
  MosPolarity polarity_;
  MosParams params_;
  spice::BankedParam w_;
  double l_;
  spice::BankedParam vth_shift_{0.0};

  CapCompanion cgs_, cgd_, cdb_, csb_;
};

}  // namespace nemsim::devices
