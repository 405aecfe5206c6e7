// NEMFET: suspended-gate MOSFET (nano-electro-mechanical FET).
//
// The movable gate beam is a spring-mass-damper pulled toward the channel
// by the electrostatic force of the gate bias.  Its displacement and
// velocity are *MNA unknowns*: the discretized mechanical equations are
// extra rows solved self-consistently with the circuit by the same Newton
// iteration (DESIGN.md decision #1).  The channel is the shared EKV model
// with air-gap-modulated threshold and slope factor: while the beam is up,
// the series air-gap capacitor divides the gate coupling so the channel is
// deeply off (only a tunneling floor conducts); when the beam pulls in,
// the device behaves as a normal (lower-Ion) MOSFET.  The snap between the
// two branches is what gives the experimentally observed ~2 mV/decade
// effective subthreshold swing and the pull-in/pull-out hysteresis.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "nemsim/devices/companion.h"
#include "nemsim/spice/device.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"
#include "nemsim/spice/parambank.h"

namespace nemsim::devices {

enum class NemsPolarity { kN, kP };

/// Technology card for a NEMFET.  Mechanical quantities are specified at
/// a reference width `w_ref` and scale linearly with instance width
/// (wider beam: proportionally stiffer, heavier, larger electrode), which
/// keeps the pull-in voltage size-independent.
struct NemsParams {
  // --- Beam mechanics (at w_ref) ---
  double gap0 = 2e-9;          ///< air gap at rest (m)
  double spring_k = 8.0;       ///< beam stiffness (N/m)
  double mass = 2e-20;         ///< effective beam mass (kg)
  double damping = 5e-10;      ///< damping coefficient (N*s/m)
  double area = 1.5e-14;       ///< electrostatic actuation area (m^2)
  double contact_k = 2e4;      ///< contact (stop) penalty stiffness (N/m)
  double contact_softness = 5e-11;  ///< softplus width of the stop (m)
  double gap_softness = 5e-11;      ///< softplus width of gap closure (m)
  double w_ref = 1e-6;         ///< width the mechanical numbers refer to

  // --- Gate stack ---
  double tox = 1e-9;           ///< oxide under the beam (m)
  double eps_ox = 3.9;         ///< oxide relative permittivity

  // --- Channel (valid with the beam in contact) ---
  double vth_ch = 0.15;        ///< threshold with gap closed (V)
  double n_ch = 1.2;           ///< slope factor with gap closed
  double kp = 72e-6;           ///< transconductance parameter (A/V^2)
  double lambda = 0.05;        ///< channel-length modulation (1/V)
  double eta_dibl = 0.0;       ///< DIBL (the MEMS gate screens the drain)
  double dvth_per_alpha = 0.8; ///< Vth increase per unit of coupling loss
  double l_ch = 1e-7;          ///< channel length (m)
  double goff = 9.2e-5;        ///< tunneling/Brownian leakage floor (S/m)
  double cov = 2e-10;          ///< overlap capacitance per width (F/m)
  double cj = 8e-10;           ///< junction capacitance per width (F/m)
  double temp = 300.0;         ///< K

  /// Effective electrostatic gap at rest: air gap plus oxide divided by
  /// its permittivity.
  double electrostatic_gap() const { return gap0 + tox / eps_ox; }

  /// Analytic parallel-plate pull-in voltage sqrt(8 k d^3 / 27 eps0 A)
  /// (width-independent by the scaling rule above).
  double analytic_pull_in_voltage() const;

  /// Analytic release (pull-out) voltage: bias at which the electrostatic
  /// force at contact equals the spring restoring force.
  double analytic_pull_out_voltage() const;

  /// Pull-in and pull-out voltages of the smoothed model the simulator
  /// solves: the folds of its static equilibrium, read from the card's
  /// branch table (NemsBranchTable).  +inf / 0 when the card has no such
  /// fold (a monostable beam).
  double pull_in_voltage() const;
  double pull_out_voltage() const;
};

/// Stable branches of a card's static beam equilibrium.
///
/// A beam position x >= 0 balances the actuation |v| when
///   v^2 * area = W(x) = 2 (k x + Fc(x)) d(x)^2 / eps0,
/// with the spring k, the contact force Fc and the electrostatic gap d of
/// the smoothed model.  The force balance r(x) = k x + Fc - Fe has the
/// sign of W(x) - v^2 area, so a root is stable exactly where W increases.
/// The branches are the maximal x-intervals on which W increases; their
/// ends are the folds of W, i.e. the exact pull-in (a maximum) and
/// pull-out (a minimum) points of the model.  Every force scales with the
/// beam width, so the table depends only on gap0, spring_k, contact_k,
/// contact_softness, gap_softness, tox and eps_ox.
struct NemsBranchTable {
  struct Branch {
    /// Samples of the branch, ascending in x; front and back are its ends.
    std::vector<double> x;
    /// W at the samples (increasing along the branch).
    std::vector<double> w;
    /// The last branch rises without bound past x.back().
    bool unbounded = false;
  };
  std::vector<Branch> branches;

  /// Locates the folds of W for card p: 256 samples over the
  /// parallel-plate region, 8 per softness width near contact, and a
  /// bisection to full precision in every sign change of dW/dx.
  static NemsBranchTable build(const NemsParams& p);

  /// Fold voltages for an electrode of `area`: the top of the branch that
  /// starts at x = 0 (+inf if it never folds) and the bottom of the last
  /// branch (0 if that branch is the one starting at x = 0).
  double pull_in_voltage(double area) const;
  double pull_out_voltage(double area) const;
};

/// The branch table of card p, shared by every caller with the same
/// mechanical fields.  Built on first use into a small thread-safe memo.
std::shared_ptr<const NemsBranchTable> nems_branch_table(const NemsParams& p);

/// The NEMFET device.  Terminals: drain, gate (beam), source.
///
/// A device is evaluated by one thread at a time: besides the accepted
/// mechanical state, its const evaluation keeps the reuse memo of
/// static_equilibrium.  Parallel sweeps and Monte-Carlo runs build one
/// circuit per task.
class Nemfet : public spice::Device {
 public:
  Nemfet(std::string name, spice::NodeId drain, spice::NodeId gate,
         spice::NodeId source, NemsPolarity polarity, NemsParams params,
         double width);

  NemsPolarity polarity() const { return polarity_; }
  const NemsParams& params() const { return params_; }
  double width() const { return w_.get(); }
  void set_width(double width);

  /// Monte-Carlo threshold shift on the channel threshold magnitude.
  void set_vth_shift(double dv) { vth_shift_.set(dv); }
  double vth_shift() const { return vth_shift_.get(); }

  /// Bank slots of the tunable scalars ("nems.vth_shift" / "nems.w");
  /// invalid until the device is added to a Circuit.
  spice::ParamSlot vth_shift_slot() const { return vth_shift_.slot(); }
  spice::ParamSlot width_slot() const { return w_.slot(); }

  /// Initial beam displacement used as the Newton cold-start guess
  /// (0 = fully up; params.gap0 = in contact).  Must be called before the
  /// MnaSystem is constructed.  Lets bistable circuits (SRAM) start on a
  /// chosen branch.
  void set_initial_position(double x0) {
    initial_position_ = x0;
    x_state_ = x0;  // also seed the DC branch memory
    touch();
  }
  void set_initially_closed() { set_initial_position(params_.gap0); }

  /// Display names of the mechanical unknowns are "<name>.x"/"<name>.v".
  spice::UnknownId unknown_x() const { return ux_; }
  spice::UnknownId unknown_v() const { return uv_; }

  /// Accepted beam displacement after the last converged solve.
  double position() const { return x_state_; }

  /// Static electromechanical helpers (exposed for tests/calibration).
  double air_gap(double x) const;
  double electrostatic_force(double v_beam, double x) const;
  double contact_force(double x) const;
  /// Channel current in canonical polarity at beam position x.
  double drain_current(double vgs, double vds, double x) const;
  /// Channel current and its partial derivatives (canonical polarity,
  /// vds >= 0).  Exposed for model verification.
  void channel_gradients(double vgs, double vds, double x, double& id,
                         double& gm, double& gds, double& did_dx) const;
  /// Gate-stack capacitance at beam position x (excludes overlaps).
  double gate_capacitance(double x) const;

  /// Static equilibrium of the beam at actuation magnitude |v|.
  ///
  /// The DC force balance k x + Fc(x) = Fe(v, x) is bistable; Newton on
  /// the raw residual cannot traverse the pull-in fold (the up-branch
  /// root vanishes in a saddle-node).  This helper solves for the root
  /// on every stable branch of the card's branch table that brackets
  /// one and returns the root closest to the device's remembered
  /// position (branch memory = hysteresis; a tie goes to the lower
  /// root), plus the implicit-function derivative dx/d|v| there.
  ///
  /// Each branch's outcome is a pure function of the branch, |v| and the
  /// width, so the device keeps the outcomes of the last |v| (keyed on
  /// the exact bits of |v| and width) and a repeated call redoes only the
  /// branch-memory selection.  Results are bitwise those of a fresh
  /// device with the same remembered position.
  struct StaticEq {
    double x;
    double dx_dv;
  };
  StaticEq static_equilibrium(double v_abs) const;
  /// The card's branch table (shared by every device of the card).
  const NemsBranchTable& branch_table() const { return *branches_; }

  void bind_params(spice::ParamBank& bank) override;
  /// Width drives the companion capacitances; resize them from the bank.
  void on_params_changed() override;
  void setup(spice::SetupContext& ctx) override;
  void stamp(spice::StampContext& ctx) const override;
  void kernel_descriptor(const spice::KernelLayout& layout,
                         spice::KernelDescriptor& out) const override;
  /// Roles: 0 = drain, 1 = gate, 2 = source, 3 = beam displacement,
  /// 4 = beam velocity.
  std::array<spice::UnknownId, 5> role_unknowns(
      const spice::KernelLayout& layout) const {
    return {layout.of(d_), layout.of(g_), layout.of(s_), layout.of(ux_),
            layout.of(uv_)};
  }
  /// Residual and Jacobian, written once for both role sinks.
  template <class Sink>
  void eval(const Sink& k) const;
  /// Every member eval reads, for exact sharing between identical devices
  /// (DESIGN.md §7k): the card, polarity, width, Vth shift, the accepted
  /// beam state and the five companion states.  The equilibrium memo is
  /// left out: it never changes a result bit.
  void twin_key(spice::TwinKey& key) const;
  /// Takes over the state `twin` committed in the same accept: the beam
  /// state and the five companion states.  Exact when both devices had
  /// equal twin_keys and equal accepted role values (MnaSystem::accept,
  /// DESIGN.md §7k).
  void adopt_state(const Nemfet& twin);
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
  /// Width scale factor for mechanical quantities.
  double sw() const { return w_.get() / params_.w_ref; }
  /// Moves the circuit's mutation generation (spice::ParamBank::touch).
  /// Every mutator of a member that twin_key lists calls it, unless it
  /// writes the bank, which moves the generation itself.
  void touch() const { w_.touch(); }

  struct ChannelEval {
    double id, gm, gds, did_dx;
  };
  ChannelEval eval_channel(double vgs, double vds, double x) const;
  /// The same from the air gap ga = air_gap(x) and its slope dga/dx,
  /// which eval also needs for the mechanics.
  ChannelEval eval_channel(double vgs, double vds, double ga,
                           double dga_dx) const;

  /// Force balance r(x) = k x + Fc - Fe at actuation |v|.
  double static_residual(double v_abs, double x) const;
  /// r (bitwise equal to static_residual) and dr/dx from one air gap
  /// and one Fe.
  struct ResidualAndSlope {
    double r, slope;
  };
  ResidualAndSlope static_residual_and_slope(double v_abs, double x) const;

  /// static_equilibrium's reuse memo for one branch of the table.
  struct BranchMemo {
    /// Root search at the memo's |v| and width.
    enum class Outcome : std::uint8_t { kUnsolved, kNoRoot, kRoot };
    Outcome outcome = Outcome::kUnsolved;
    double root = 0.0;
    /// dx/d|v| at the root, once the root has been selected.
    bool has_dx_dv = false;
    double dx_dv = 0.0;
  };
  struct EquilibriumMemo {
    std::uint64_t w_bits = 0;  ///< width the outcomes belong to
    std::uint64_t v_bits = 0;  ///< |v| the outcomes belong to
    std::vector<BranchMemo> branches;
  };
  /// Root of r on one branch that brackets it, or false.
  bool branch_root(const NemsBranchTable::Branch& b, double v_abs,
                   double& root) const;

  spice::NodeId d_, g_, s_;
  NemsPolarity polarity_;
  NemsParams params_;
  std::shared_ptr<const NemsBranchTable> branches_;
  spice::BankedParam w_;
  spice::BankedParam vth_shift_{0.0};
  double initial_position_ = 0.0;

  spice::UnknownId ux_, uv_;
  // Accepted mechanical state (start values for the next step).
  double x_state_ = 0.0;
  double v_state_ = 0.0;
  // Exact reuse for static_equilibrium (see the class comment on threads).
  mutable EquilibriumMemo memo_;

  CapCompanion cg_gap_;  // beam-to-channel stack cap, position-dependent
  CapCompanion cgd_ov_, cgs_ov_, cdb_, csb_;
};

}  // namespace nemsim::devices
