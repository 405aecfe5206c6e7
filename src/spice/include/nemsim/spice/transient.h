// Transient analysis: adaptive-step integration of the full MNA system.
//
// Devices discretize their own dynamics (capacitors/inductors use
// trapezoidal companions with backward-Euler restarts at source
// discontinuities; the NEMS beam uses backward Euler for its mechanical
// rows).  The driver adapts the step from a predictor-corrector local
// truncation error estimate and lands exactly on source breakpoints.
#pragma once

#include "nemsim/spice/analysis.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/waveform.h"

namespace nemsim::spice {

/// Newton settings, report sink, and the lint and analyze gates live in
/// the shared AnalysisCommon base (nemsim/spice/analysis.h).
struct TransientOptions : AnalysisCommon {
  double tstop = 0.0;          ///< required: end time (seconds)
  double dt_initial = 1e-12;   ///< first step and post-breakpoint restart
  double dt_min = 1e-18;       ///< give up below this; in (0, dt_initial]
  double dt_max = 0.0;         ///< 0 → tstop / 50
  double lte_reltol = 2e-3;    ///< LTE target relative to signal magnitude
  double reject_factor = 8.0;  ///< reject a step when LTE ratio exceeds this
};

/// Runs a transient from the DC operating point at t = 0.
/// Returns the full solution trace (every unknown, every accepted step).
Waveform transient(MnaSystem& system, const TransientOptions& options);

}  // namespace nemsim::spice
