// Process variation: per-device threshold-voltage sampling and a
// Monte-Carlo driver (paper Figure 9 studies sigma_Vth/mu_Vth of 3/6/9 %).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nemsim/spice/circuit.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/parambank.h"
#include "nemsim/util/rng.h"
#include "nemsim/util/stats.h"

namespace nemsim::variation {

/// Applies independent N(0, sigma) threshold shifts to every MOSFET and
/// NEMFET in the circuit.  `sigma_fraction` is sigma_Vth/mu_Vth; each
/// device's own nominal threshold magnitude sets its mu.  Writes
/// vth_variation_patch's draw into the circuit's parameter bank.
void apply_vth_variation(spice::Circuit& circuit, double sigma_fraction,
                         Rng& rng);

/// Restores all threshold shifts to zero (writes 0 into the same bank
/// slots).
void clear_vth_variation(spice::Circuit& circuit);

/// The variation draw behind apply_vth_variation, as a bank overlay
/// patch: one entry per device's vth-shift bank slot, drawn from `rng`
/// for all MOSFETs, then all NEMFETs, in registration order.  Applying it
/// to a CompiledCircuit's overlay gives bitwise the same parameters as
/// apply_vth_variation on the same circuit with the same RNG stream.
spice::ParamPatch vth_variation_patch(const spice::Circuit& circuit,
                                      double sigma_fraction, Rng& rng);

struct MonteCarloOptions {
  std::size_t trials = 100;
  std::uint64_t seed = 20070604;  ///< DAC 2007 started June 4th
  double sigma_fraction = 0.06;
  /// Optional diagnostics sink: trial counters plus a note per failed
  /// trial carrying the structured convergence payload (worst residual
  /// rows) instead of just a log line.
  spice::RunReport* report = nullptr;
};

struct MonteCarloResult {
  RunningStats stats;
  std::vector<double> samples;
  std::size_t failures = 0;

  /// Mean + `k` standard deviations — the usual worst-case corner proxy.
  /// With fewer than two successful trials the spread is undefined
  /// (RunningStats::stddev is NaN there); `k` of 0 still returns the
  /// plain mean so a single-trial smoke run keeps its nominal value.
  double mean_plus_sigmas(double k) const {
    if (k == 0.0) return stats.mean();
    return stats.mean() + k * stats.stddev();
  }
  double worst() const { return stats.max(); }
};

/// Runs `metric` under `trials` independent variation draws on `circuit`.
///
/// For each trial: threshold shifts are sampled (deterministically from
/// seed + trial index), `metric(circuit)` is evaluated, and shifts are
/// cleared again.  The metric typically rebuilds an MnaSystem and runs an
/// analysis.  A trial whose metric throws is counted in `failures` (and
/// noted in the report) instead of aborting the run.
///
/// Parallel and compile-once runs are composed by the caller: per-trial
/// circuits over util::parallel_map, or one CompiledCircuit whose
/// overlay is set to vth_variation_patch per trial.  Drawing each trial
/// from Rng(seed).child(trial) reproduces this driver's samples bitwise.
MonteCarloResult monte_carlo(
    spice::Circuit& circuit,
    const std::function<double(spice::Circuit&)>& metric,
    const MonteCarloOptions& options);

}  // namespace nemsim::variation
