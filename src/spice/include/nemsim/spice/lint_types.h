// nemsim::lint primitive types: findings, reports, modes.
//
// Kept separate from the analyzer (nemsim/spice/lint.h) so the low-level
// headers that only *carry* findings — spice/device.h (Device::self_check)
// and spice/diagnostics.h (RunReport::lint_findings) — can include this
// without pulling in the Circuit/MnaSystem machinery.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nemsim/util/error.h"

namespace nemsim::lint {

/// How serious a finding is.
///
///  - kError: the circuit is structurally broken — the MNA system is
///    singular (up to the gmin crutch) and Newton will grind through the
///    whole homotopy ladder before failing.  Strict mode refuses to
///    simulate these.
///  - kWarning: the circuit will simulate but something is almost
///    certainly not what the author meant (non-physical parameter, a node
///    whose DC value only exists thanks to gmin, ...).
///  - kHint: style/portability advice (e.g. a device name that will not
///    round-trip through the netlist parser's first-letter dispatch).
enum class LintSeverity { kHint = 0, kWarning = 1, kError = 2 };

/// Stable lowercase name of a severity ("hint", "warning", "error").
const char* lint_severity_name(LintSeverity severity);

/// One finding of the pre-simulation structural analyzer.
struct LintFinding {
  LintSeverity severity = LintSeverity::kWarning;
  /// Stable kebab-case rule id ("floating-node", "voltage-loop", ...).
  std::string rule;
  /// Device or node name the finding anchors to.
  std::string subject;
  /// Full human-readable text, including the names involved.
  std::string message;

  /// "error[voltage-loop] V2: ..." — one-line rendering.
  std::string to_string() const;
};

/// Severity-tiered result of a lint pass.  The counters keep counting
/// even after the findings vector is capped (kMaxFindings), so a
/// pathological circuit cannot grow the report unboundedly while
/// `clean()` stays truthful.
struct LintReport {
  /// Findings a report keeps (the same cap as RunReport::kMaxRecords).
  static constexpr std::size_t kMaxFindings = 256;

  std::vector<LintFinding> findings;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t hints = 0;

  /// No errors and no warnings.  Hints are allowed: they flag
  /// portability concerns, not simulation problems.
  bool clean() const { return errors == 0 && warnings == 0; }
  bool has_errors() const { return errors != 0; }
  std::size_t count(LintSeverity severity) const {
    switch (severity) {
      case LintSeverity::kError: return errors;
      case LintSeverity::kWarning: return warnings;
      case LintSeverity::kHint: return hints;
    }
    return 0;
  }

  /// Multi-line listing: one line per finding plus a totals line.
  std::string summary() const;
};

/// Strict-mode rejection: the analyzer found errors and the analysis
/// options asked to fail fast.  Carries the full report (shared_ptr-held
/// so the exception stays cheaply copyable, mirroring ConvergenceError).
class LintError : public Error {
 public:
  LintError(const std::string& what, LintReport report)
      : Error(what),
        report_(std::make_shared<const LintReport>(std::move(report))) {}

  const LintReport& report() const { return *report_; }

 private:
  std::shared_ptr<const LintReport> report_;
};

/// Per-analysis lint gating, carried by {Op,Transient,DcSweep,Ac}Options.
///
///  - kOff: no lint work at all; the run is bitwise identical to a build
///    without the analyzer.
///  - kWarn (default): findings are logged (warn level) and embedded in
///    the attached RunReport; the solve proceeds regardless.
///  - kStrict: like kWarn, but a report with errors throws LintError
///    before any Newton work (in particular before the gmin/source
///    homotopy ladder has a chance to burn time on a structurally
///    singular system).
enum class LintMode { kOff, kWarn, kStrict };

/// Circuit-level facts handed to Device::self_check so device-local
/// checks can see their environment.
struct DeviceCheckContext {
  /// Largest magnitude any independent voltage source in the circuit
  /// reaches over all time (the supply rail, for actuation checks).
  /// 0 when the circuit has no voltage source.
  double supply_rail = 0.0;
};

}  // namespace nemsim::lint
