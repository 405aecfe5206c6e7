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

/// Newton settings, report sink, forensics, and lint gate live in the
/// shared AnalysisCommon base (nemsim/spice/analysis.h).  The lint gate
/// runs once per sweep (not per point); in dc_sweep_parallel it runs on
/// the reference instance before any worker starts, and the report is
/// filled after the workers join, in input order.
struct DcSweepOptions : AnalysisCommon {
  /// When true (default), each point starts from the previous solution;
  /// when false, every point is solved cold (branch-independent).
  bool continuation = true;
};

/// Applies `set_param(value)` then solves an operating point, for each
/// value in `points` (any order; typically ascending or descending).
/// The returned Waveform's axis is the swept value; all unknowns are
/// recorded per point.
Waveform dc_sweep(MnaSystem& system,
                  const std::function<void(double)>& set_param,
                  std::span<const double> points,
                  const DcSweepOptions& options = {});

/// Parallel DC sweep over independent per-point circuits.
///
/// `make_circuit` builds a fresh Circuit per task (tasks never share
/// devices or MnaSystems, so no synchronization is needed) and
/// `set_param(circuit, value)` applies the swept value before the solve.
/// Every point is solved cold — there is no continuation between points,
/// so the result matches dc_sweep with `continuation = false` and is
/// bitwise identical for any thread count (points are collected in input
/// order).  Hysteretic curves (NEMS pull-in/pull-out) need the
/// sequential, continuation-enabled dc_sweep instead.
/// `num_threads` of 0 uses util::default_parallelism(); 1 runs inline.
Waveform dc_sweep_parallel(
    const std::function<Circuit()>& make_circuit,
    const std::function<void(Circuit&, double)>& set_param,
    std::span<const double> points, const DcSweepOptions& options = {},
    std::size_t num_threads = 0);

/// Evenly spaced sweep points, inclusive of both ends.
std::vector<double> linspace(double first, double last, std::size_t count);

}  // namespace nemsim::spice
