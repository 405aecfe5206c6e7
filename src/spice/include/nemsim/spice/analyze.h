// nemsim::analyze — semantic static analysis over a spice::Circuit.
//
// Runs after nemsim::lint (graph shape, stamp pattern) and before any
// solve.  Where lint asks "can this system be assembled and factored at
// all", analyze asks "what will the solution look like, and is that what
// the author meant" — abstract interpretation over node-voltage
// intervals plus structural magnitude scans:
//
//  1. DC interval analysis.  Every node starts at (-inf, inf); ground is
//     [0, 0].  Device::interval_transfer hooks supply difference
//     relations through voltage-defining elements (V, E, L-as-DC-short)
//     and maximum-principle neighbor claims through passive conductive
//     edges (R, D, FET and NEMFET channels).  The engine intersects
//     relation claims directly; neighbor claims are only applied at
//     nodes whose every DC-current-carrying edge is passive (a node fed
//     by a current source can sit outside its neighbors' hull), where
//     the union of all neighbor claims bounds the node.  Iterated to a
//     fixpoint with a sweep cap; because the lattice only narrows from
//     top, stopping early is sound — intervals are enclosures of the
//     exact DC solution.  (The solver's gmin regularization perturbs the
//     solved OP off the exact solution by up to ~gmin/G of the voltage
//     scale; consumers asserting containment add slack for that.)
//  2. Operating-region reachability.  Device::interval_check turns the
//     converged intervals into verdicts: a NEMFET whose gate drive can
//     never reach pull-in (or never fall below release), channels that
//     are provably always off, junctions that can never forward-bias.
//     NEMFET verdicts carry a testable prediction of the beam-position
//     unknown at the OP — the soundness contract nemsim-fuzz replays.
//  3. Stiffness & conditioning prediction.  Per-node time constants
//     (sum of capacitive edge magnitudes over sum of conductive edge
//     magnitudes, plus L/R for inductor branches) predict the transient
//     step-count spread; the global conductance scale spread predicts
//     Jacobian ill-conditioning.  Both come with concrete suggestions
//     (dt_initial, scaling, gmin) instead of a bare number.
//  4. Controllability cones.  Union-find over non-ground terminal
//     co-incidence: a connected component with no independent source is
//     provably dead (settles to the zero solution).
//
// All findings use the lint severity/report machinery, so the CLI, the
// analysis gate and RunReport JSON render them uniformly.
#pragma once

#include <string>
#include <vector>

#include "nemsim/spice/analyze_types.h"
#include "nemsim/spice/lint_types.h"

namespace nemsim::spice {
class Circuit;
struct RunReport;
}  // namespace nemsim::spice

namespace nemsim::analyze {

/// Everything the pass computed, alongside the findings that summarize
/// it.  `intervals` is indexed by NodeId and always sized to the
/// circuit's node count.
struct AnalyzeReport {
  IntervalSet intervals;
  std::vector<std::string> node_names;        ///< node_names[i] = node i
  std::vector<RegionVerdict> verdicts;
  lint::LintReport findings;
  std::size_t sweeps = 0;     ///< fixpoint sweeps actually run
  bool fixpoint = false;      ///< true when a sweep changed nothing
  // Stiffness / conditioning scan results (0 when not derivable).
  double tau_min = 0.0, tau_max = 0.0;
  double g_min = 0.0, g_max = 0.0;
};

/// Runs the full pass.  Pure analysis: no device or circuit state is
/// modified and no MnaSystem is built — this is a topology/params walk.
/// The findings keep the first LintReport::kMaxFindings entries.
AnalyzeReport analyze_circuit(const spice::Circuit& circuit);

/// Analysis-entry gate used by the op/transient/dc_sweep/ac drivers,
/// mirroring lint::lint_gate:
///
/// kOff (the default): returns an empty report without doing any work.
/// kWarn: runs the pass; findings are logged at warn level and copied
///   into `run_report->analyze_findings` (if attached).
/// kStrict: like kWarn, but throws LintError when the report has errors
///   OR warnings.  Unlike the lint gate (whose warnings are "simulable
///   but suspicious" and must not block the shipped decks), every
///   analyze warning is a semantic claim — a dead subcircuit, an
///   unreachable operating region — that a caller opting into strict
///   mode wants rejected before burning a homotopy ladder on it.
lint::LintReport analyze_gate(const spice::Circuit& circuit,
                              lint::LintMode mode,
                              spice::RunReport* run_report);

}  // namespace nemsim::analyze
