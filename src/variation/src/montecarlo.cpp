#include "nemsim/variation/montecarlo.h"

#include <cmath>
#include <string>

#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/util/error.h"
#include "nemsim/util/logging.h"

namespace nemsim::variation {

namespace {

/// Visits every MOSFET's and then every NEMFET's vth-shift bank slot, in
/// registration order (the draw order), with the magnitude of the
/// device's nominal threshold.
template <typename Fn>
void for_each_vth_slot(const spice::Circuit& circuit, Fn&& fn) {
  circuit.for_each<devices::Mosfet>([&](const devices::Mosfet& m) {
    fn(m.vth_shift_slot(), std::abs(m.params().vth0));
  });
  circuit.for_each<devices::Nemfet>([&](const devices::Nemfet& x) {
    fn(x.vth_shift_slot(), std::abs(x.params().vth_ch));
  });
}

/// The report note for one failed trial, with the structured
/// convergence payload when the failure carries one.
std::string trial_failure_note(std::size_t trial, const Error& e) {
  std::string note =
      "trial " + std::to_string(trial) + " failed: " + e.what();
  if (const auto* conv = dynamic_cast<const ConvergenceError*>(&e)) {
    if (conv->has_diagnostics()) {
      note += "\n" + conv->diagnostics()->describe();
    }
  }
  return note;
}

}  // namespace

void apply_vth_variation(spice::Circuit& circuit, double sigma_fraction,
                         Rng& rng) {
  require(sigma_fraction >= 0.0, "apply_vth_variation: sigma must be >= 0");
  circuit.param_bank().apply(
      vth_variation_patch(circuit, sigma_fraction, rng));
}

void clear_vth_variation(spice::Circuit& circuit) {
  spice::ParamBank& bank = circuit.param_bank();
  for_each_vth_slot(circuit, [&](spice::ParamSlot slot, double) {
    bank.set_value(slot, 0.0);
  });
}

spice::ParamPatch vth_variation_patch(const spice::Circuit& circuit,
                                      double sigma_fraction, Rng& rng) {
  require(sigma_fraction >= 0.0, "vth_variation_patch: sigma must be >= 0");
  spice::ParamPatch patch;
  for_each_vth_slot(circuit, [&](spice::ParamSlot slot, double vth) {
    patch.push_back({slot, rng.normal(0.0, sigma_fraction * vth)});
  });
  return patch;
}

MonteCarloResult monte_carlo(
    spice::Circuit& circuit,
    const std::function<double(spice::Circuit&)>& metric,
    const MonteCarloOptions& options) {
  require(options.trials > 0, "monte_carlo: need at least one trial");
  spice::RunReport* report = options.report;
  if (report && report->analysis.empty()) report->analysis = "monte_carlo";
  MonteCarloResult result;
  result.samples.reserve(options.trials);
  Rng root(options.seed);
  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    Rng stream = root.child(trial);
    apply_vth_variation(circuit, options.sigma_fraction, stream);
    if (report) ++report->points;
    try {
      const double value = metric(circuit);
      result.stats.add(value);
      result.samples.push_back(value);
    } catch (const Error& e) {
      const std::string note = trial_failure_note(trial, e);
      if (report) {
        ++report->failed_points;
        report->add_note("monte_carlo: " + note);
      }
      ++result.failures;
      log_warn("monte_carlo: " + note);
    }
    clear_vth_variation(circuit);
  }
  require(result.stats.count() > 0, "monte_carlo: all trials failed");
  if (report && result.stats.count() < 2) {
    report->add_note(
        "monte_carlo: fewer than two successful trials — spread "
        "(variance/stddev) is undefined and reported as NaN");
  }
  return result;
}

}  // namespace nemsim::variation
