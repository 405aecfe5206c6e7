// Wide fan-in dynamic (domino) OR gates: the conventional CMOS gate with
// a feedback keeper (paper Figure 8 (a)) and the proposed hybrid
// NEMS-CMOS gate with NEMFETs in series below the NMOS pull-down devices
// (Figure 8 (b)), plus the testbench metrics the paper reports: worst-case
// delay, switching power, leakage power and noise margin.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nemsim/core/gates.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"

namespace nemsim::core {

/// Configuration of one dynamic OR gate instance.
struct DynamicOrConfig {
  int fanin = 8;
  int fanout = 1;              ///< inverter loads on the output
  bool hybrid = false;         ///< true: NEMS in series in the pull-down
  double vdd = 1.2;

  double input_nmos_width = 0.3e-6;   ///< per-input pull-down NMOS
  double nems_width = 0.9e-6;         ///< series NEMFET (hybrid only)
  double precharge_width = 0.6e-6;    ///< clocked precharge PMOS
  /// CMOS keeper sizing.  The paper's premise (Figure 9 / ref [24]): the
  /// keeper must be sized against the *worst-case pull-down leakage*,
  /// which grows with fan-in, so by default the CMOS keeper scales as
  /// keeper_per_input * fanin.  Set autosize_keeper = false to use
  /// keeper_width directly.
  bool autosize_keeper = true;
  double keeper_per_input = 0.0825e-6;
  double keeper_min_width = 0.12e-6;
  /// The keeper cannot outgrow a single pull-down path or the gate can no
  /// longer evaluate; clamp its autosized width.
  double keeper_max_width = 0.8e-6;
  double keeper_width = 0.15e-6;      ///< used when autosize_keeper = false
  /// With the near-zero-leakage NEMS pull-down the keeper can always be
  /// minimum size; the hybrid builder uses this.
  double hybrid_keeper_width = 0.12e-6;
  InverterSizes output_inverter{0.4e-6, 0.2e-6, 1e-7};
  /// NEMS technology card for the series devices (ablation studies swap
  /// in modified mechanics here).
  devices::NemsParams nems_card = tech::nems_90nm();

  // Testbench timing: one precharge phase then one evaluate phase.
  double t_precharge = 1e-9;   ///< clk low (precharge) duration
  double t_evaluate = 1e-9;    ///< clk high (evaluate) duration
  double t_edge = 20e-12;      ///< clk and input edge times
  double input_skew = 100e-12; ///< input rises this long after clk

  /// Newton solver knobs for the measurement transients/ops (solver
  /// path, tolerances, kernel lanes).
  spice::NewtonOptions newton{};
};

/// A built gate plus its testbench sources.
///
/// Node names: "clk", "dyn" (dynamic node), "out" (after the inverter),
/// inputs "in0".."in<k>".  Sources: "Vdd", "Vclk", "Vin0".."Vin<k>".
/// Each pull-down leg is a subcircuit instance "Xleg<i>"
/// (nemsim/core/cells.h), so its devices carry hierarchical names:
/// "Xleg<i>.MPD" and, in the hybrid gate, "Xleg<i>.XPD" with internal
/// node "Xleg<i>.mid".  The output inverter is instance "XINVout".
struct DynamicOrGate {
  DynamicOrConfig config;
  std::unique_ptr<spice::Circuit> circuit;

  spice::Circuit& ckt() { return *circuit; }
  std::string input_source(int i) const {
    return "Vin" + std::to_string(i);
  }
  std::string input_node(int i) const { return "in" + std::to_string(i); }
};

/// Builds the gate and its testbench skeleton (all inputs parked at 0 V
/// DC; reconfigure individual input sources per experiment).
DynamicOrGate build_dynamic_or(const DynamicOrConfig& config);

/// Measured gate metrics (paper Figures 9-12).
struct DynamicOrMetrics {
  double worst_case_delay = 0.0;   ///< input-50% to out-50%, one-hot input
  double switching_energy = 0.0;   ///< supply energy over one full cycle
  double switching_power = 0.0;    ///< energy / cycle time
  double leakage_power = 0.0;      ///< evaluate phase, all inputs low
};

/// Worst-case delay: a single asserted input (the weakest pull-down path)
/// rising `input_skew` after the evaluate edge; measured from input 50 %
/// crossing to output 50 % crossing.
double measure_worst_case_delay(DynamicOrGate& gate);

/// Switching power: supply energy over one precharge+evaluate cycle with
/// one input switching, divided by the cycle time.
double measure_switching_power(DynamicOrGate& gate);

/// Leakage power: static dissipation in the evaluate phase with all
/// inputs low (keeper holding the dynamic node against PDN leakage).
/// An optional RunReport sink collects the op-phase Newton diagnostics.
double measure_leakage_power(DynamicOrGate& gate,
                             spice::RunReport* report = nullptr);

/// All three in one (shares the transient run between delay and power).
/// An optional RunReport sink collects the transient + op diagnostics of
/// the underlying runs (histogram, LTE rejects, stepping stages).
DynamicOrMetrics measure_dynamic_or(DynamicOrGate& gate,
                                    spice::RunReport* report = nullptr);

/// Noise margin: the largest DC noise voltage that can sit on ALL inputs
/// during the evaluate phase without the output rising (bisection over
/// transient runs; resolution `v_resolution`).
double measure_noise_margin(DynamicOrGate& gate,
                            double v_resolution = 5e-3);

/// Sizes the CMOS keeper to just meet `nm_target` volts of noise margin:
/// the smallest width in [w_lo, w_hi] whose measured noise margin
/// reaches the target (noise margin grows monotonically with keeper
/// width).  Throws ConvergenceError when even w_hi cannot meet it.
double size_keeper_for_noise_margin(const DynamicOrConfig& base,
                                    double nm_target, double w_lo = 0.12e-6,
                                    double w_hi = 0.8e-6,
                                    double w_resolution = 0.02e-6);

}  // namespace nemsim::core
