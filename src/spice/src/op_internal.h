// Per-point operating-point solve shared by the analysis drivers.
#pragma once

#include "nemsim/spice/op.h"

namespace nemsim::spice {

/// operating_point_from without the OpResult name tables, solved through
/// the caller's solver: returns the raw solution (unknown order), already
/// committed to device state.  dc_sweep keeps one NewtonSolver for every
/// point and transient one for the bias point and every step, so the
/// symbolic LU and iteration vectors carry over.  `newton` must wrap
/// `system`; `options.newton` is not consulted.  The solve's Newton
/// counters go to `options.report` when one is set.
linalg::Vector solve_operating_point(MnaSystem& system,
                                     const linalg::Vector& x0,
                                     const OpOptions& options,
                                     NewtonSolver& newton);

}  // namespace nemsim::spice
