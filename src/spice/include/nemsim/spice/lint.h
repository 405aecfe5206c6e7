// nemsim::lint — pre-simulation structural analyzer for circuits.
//
// Runs over a spice::Circuit *before* any solve and returns a
// severity-tiered LintReport.  The rules move whole failure classes from
// "Newton died after the full gmin/source homotopy ladder" to "rejected
// in microseconds with a named node and rule".
//
// Foundations:
//  - Device::topology(): a graph-level incidence probe — every rule sees
//    which nodes each device touches and how each terminal pair is
//    coupled (conductive / voltage-defined / current-defined /
//    capacitive).
//  - MnaSystem::structural_pattern(): a recording structural-stamp pass
//    (the pattern machinery of the sparse fast path, minus the forced
//    diagonals and gmin shunts) giving the true MNA sparsity structure.
//  - Device::self_check(): device-local parameter sanity, fed the
//    circuit-level supply rail.
//
// Rule classes (stable ids; DESIGN.md enumerates each in detail):
//   error   floating-node              node unreachable from ground
//   error   voltage-loop               cycle of voltage-defined branches
//                                      (inductors count as DC shorts)
//   error   current-cutset             node driven only by current sources
//   error   zero-mna-row               equation row with no structural entries
//   error   zero-mna-column            unknown appearing in no equation
//   error   structural-rank            no perfect matching on the pattern
//   warning nonphysical-parameter      negative/zero R, C, L, W; NEMS
//                                      mechanics out of physical range
//   warning pull-in-above-rail         NEMFET that can never actuate
//   warning capacitive-only-node       no DC path (gmin ladder fodder)
//   warning dangling-node              single-terminal internal node
//   warning parallel-voltage-sources   conflicting sources on one node pair
//   warning unconnected-subckt-port    instance port with nothing attached
//                                      outside the instance (or a formal
//                                      the subcircuit body never uses)
//   hint    name-convention            device name won't round-trip through
//                                      the first-letter-dispatch parser
//                                      (devices elaborated from subcircuits
//                                      are exempt: they round-trip via
//                                      their .subckt body and X card)
//
// Findings over elaborated hierarchies (nemsim/spice/subcircuit.h) name
// nodes and devices by their full hierarchical path ("Xcol.Xcell3.ql").
#pragma once

#include "nemsim/spice/lint_types.h"

namespace nemsim::spice {
class Circuit;
class MnaSystem;
struct RunReport;
}  // namespace nemsim::spice

namespace nemsim::lint {

/// Runs every rule over an existing MNA system (no re-setup; this is
/// what the analysis drivers call).  Pure analysis: no device or system
/// state is modified, and the subsequent solve is bitwise identical.
/// The report keeps the first LintReport::kMaxFindings findings.
LintReport lint_system(const spice::MnaSystem& system);

/// Convenience entry point over a bare circuit.  Builds a temporary
/// MnaSystem, which (re)runs Device::setup — idempotent, but the
/// non-const reference is why this overload exists separately.
LintReport lint_circuit(spice::Circuit& circuit);

/// Analysis-entry gate used by the op/transient/dc_sweep/ac drivers.
///
/// kOff: returns an empty report without doing any work.
/// kWarn: runs the analyzer; when findings exist they are logged at warn
///   level and copied into `run_report->lint_findings` (if attached).
/// kStrict: like kWarn, but throws LintError when the report has errors
///   — before any Newton work, so a structurally singular circuit never
///   enters the gmin/source homotopy ladder.
LintReport lint_gate(const spice::MnaSystem& system, LintMode mode,
                     spice::RunReport* run_report);

}  // namespace nemsim::lint
