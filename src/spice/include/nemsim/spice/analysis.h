// Options shared by every analysis driver.
//
// Each of {Op,Transient,DcSweep,Ac}Options used to carry its own copy of
// the Newton settings, the RunReport sink, and the lint and analyze gate
// modes; they are one struct now so a caller can configure the common
// knobs once and reuse them across analyses.  The per-analysis Options
// structs inherit AnalysisCommon, so existing field access
// (`options.newton.max_iterations`, `options.report`) is unchanged.
#pragma once

#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/lint_types.h"
#include "nemsim/spice/newton.h"

namespace nemsim::spice {

struct AnalysisCommon {
  NewtonOptions newton;
  /// Optional diagnostics sink (stage records, histograms, timings).
  /// Zero overhead when left null; the run is bitwise identical.
  RunReport* report = nullptr;
  /// Pre-solve structural lint gate (nemsim/spice/lint.h).  kWarn logs
  /// findings and embeds them in `report`; kStrict throws LintError on
  /// errors before any Newton work; kOff skips the analyzer entirely
  /// (bitwise-identical run).  Runs once per analysis entry — embedded
  /// operating points do not lint again.
  lint::LintMode lint = lint::LintMode::kWarn;
  /// Pre-solve semantic analysis gate (nemsim/spice/analyze.h): interval
  /// reachability, operating regions, stiffness/conditioning, dead
  /// cones.  Same tiering as `lint`, except strict mode rejects on
  /// warnings too (every analyze warning is a semantic claim about the
  /// solution, not a style concern).  Defaults to kOff: the pass walks
  /// every device per fixpoint sweep, and the per-analysis drivers are
  /// on hot paths (Monte-Carlo trials, sweep points).
  lint::LintMode analyze = lint::LintMode::kOff;
};

}  // namespace nemsim::spice
