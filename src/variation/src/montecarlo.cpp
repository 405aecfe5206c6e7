#include "nemsim/variation/montecarlo.h"

#include <cmath>
#include <string>

#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/spice/lint.h"
#include "nemsim/util/error.h"
#include "nemsim/util/logging.h"

namespace nemsim::variation {

namespace {

/// Builds the failure note / forensics bundle for one failed trial.  The
/// circuit still carries the trial's threshold shifts here, so the dumped
/// netlist reproduces the exact failing sample.
std::string record_trial_failure(const MonteCarloOptions& options,
                                 spice::Circuit& circuit, std::size_t trial,
                                 const Error& e) {
  const auto* conv = dynamic_cast<const ConvergenceError*>(&e);
  const ConvergenceDiagnostics* diag =
      conv != nullptr ? conv->diagnostics() : nullptr;
  std::string note =
      "trial " + std::to_string(trial) + " failed: " + e.what();
  if (diag != nullptr) note += "\n" + diag->describe();
  if (options.forensics.enabled) {
    spice::ForensicsOptions trial_forensics = options.forensics;
    trial_forensics.tag += "_trial" + std::to_string(trial);
    // Lint the varied circuit so the dump can name a structural cause
    // (a variation-shifted device tripping a parameter check, say).
    const lint::LintReport lint_report = lint::lint_circuit(circuit);
    spice::write_failure_forensics(trial_forensics, circuit,
                                   /*wave=*/nullptr, e.what(), diag,
                                   &lint_report);
  }
  return note;
}

}  // namespace

void apply_vth_variation(spice::Circuit& circuit, double sigma_fraction,
                         Rng& rng) {
  require(sigma_fraction >= 0.0, "apply_vth_variation: sigma must be >= 0");
  circuit.for_each<devices::Mosfet>([&](devices::Mosfet& m) {
    const double sigma = sigma_fraction * std::abs(m.params().vth0);
    m.set_vth_shift(rng.normal(0.0, sigma));
  });
  circuit.for_each<devices::Nemfet>([&](devices::Nemfet& x) {
    const double sigma = sigma_fraction * std::abs(x.params().vth_ch);
    x.set_vth_shift(rng.normal(0.0, sigma));
  });
}

void clear_vth_variation(spice::Circuit& circuit) {
  circuit.for_each<devices::Mosfet>(
      [](devices::Mosfet& m) { m.set_vth_shift(0.0); });
  circuit.for_each<devices::Nemfet>(
      [](devices::Nemfet& x) { x.set_vth_shift(0.0); });
}

spice::ParamPatch vth_variation_patch(const spice::Circuit& circuit,
                                      double sigma_fraction, Rng& rng) {
  require(sigma_fraction >= 0.0, "vth_variation_patch: sigma must be >= 0");
  spice::ParamPatch patch;
  // Draw order must match apply_vth_variation exactly so the same RNG
  // stream yields the same per-device shifts.
  circuit.for_each<devices::Mosfet>([&](const devices::Mosfet& m) {
    const double sigma = sigma_fraction * std::abs(m.params().vth0);
    patch.push_back({m.vth_shift_slot(), rng.normal(0.0, sigma)});
  });
  circuit.for_each<devices::Nemfet>([&](const devices::Nemfet& x) {
    const double sigma = sigma_fraction * std::abs(x.params().vth_ch);
    patch.push_back({x.vth_shift_slot(), rng.normal(0.0, sigma)});
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
      // Capture the structured failure (and the varied netlist, when
      // forensics is on) before the shifts are cleared below.
      const std::string note =
          record_trial_failure(options, circuit, trial, e);
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
