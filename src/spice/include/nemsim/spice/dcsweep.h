// DC sweep: repeated operating points along a swept parameter, with
// solution continuation (each point starts Newton from the previous one).
// Continuation is what makes hysteretic device curves (NEMS pull-in /
// pull-out) come out correctly: sweeping up and sweeping down follow
// different stable branches.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "nemsim/spice/analysis.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/waveform.h"

namespace nemsim::spice {

/// Newton settings, report sink, and the lint and analyze gates live in
/// the shared AnalysisCommon base (nemsim/spice/analysis.h).  The gates
/// run once per sweep, not per point.
struct DcSweepOptions : AnalysisCommon {};

/// Applies `set_param(value)` then solves an operating point, for each
/// value in `points` (any order; typically ascending or descending).
/// The returned Waveform's axis is the swept value; all unknowns are
/// recorded per point.
Waveform dc_sweep(MnaSystem& system,
                  const std::function<void(double)>& set_param,
                  std::span<const double> points,
                  const DcSweepOptions& options = {});

/// Evenly spaced sweep points, inclusive of both ends.
std::vector<double> linspace(double first, double last, std::size_t count);

}  // namespace nemsim::spice
