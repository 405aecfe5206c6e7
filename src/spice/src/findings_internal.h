// Findings plumbing shared by the lint and analyze passes.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "nemsim/spice/lint_types.h"

namespace nemsim::lint {

/// Builds a LintReport: keeps the first LintReport::kMaxFindings findings
/// while the severity counters keep counting, then orders errors >
/// warnings > hints, stable within a tier so rules keep their deliberate
/// emission order.
class ReportBuilder {
 public:
  void add(LintFinding finding) {
    switch (finding.severity) {
      case LintSeverity::kError: ++report_.errors; break;
      case LintSeverity::kWarning: ++report_.warnings; break;
      case LintSeverity::kHint: ++report_.hints; break;
    }
    if (report_.findings.size() < LintReport::kMaxFindings) {
      report_.findings.push_back(std::move(finding));
    }
  }

  LintReport take() {
    std::stable_sort(report_.findings.begin(), report_.findings.end(),
                     [](const LintFinding& a, const LintFinding& b) {
                       return static_cast<int>(a.severity) >
                              static_cast<int>(b.severity);
                     });
    return std::move(report_);
  }

 private:
  LintReport report_;
};

/// The analysis-entry gate behind lint_gate and analyze_gate, for a
/// report `pass` ("lint", "analyze") already ran: appends the findings
/// to `sink` (when non-null), logs them at warn level unless the report
/// is clean, and in strict mode throws LintError when the report has
/// errors, or warnings too when `strict_rejects_warnings`.
LintReport gate_findings(LintReport report, const char* pass, LintMode mode,
                         bool strict_rejects_warnings,
                         std::vector<LintFinding>* sink);

}  // namespace nemsim::lint
