// Simulation observability: per-analysis run reports and structured
// convergence failures.
//
// Every analysis driver (operating point, transient, DC sweep, Monte
// Carlo) accepts an optional RunReport sink.  When attached, the driver
// fills in cumulative Newton work counters, homotopy stepping-stage
// records, a per-solve Newton-iteration histogram, LTE-reject and
// step-failure locations, and phase wall-clock timings.  When no sink is
// attached the instrumented code paths are skipped entirely, so the
// simulation is bitwise identical and pays nothing.
//
// On failure, ConvergenceError (util/error.h) carries a structured
// ConvergenceDiagnostics payload naming the worst weighted-residual rows
// via the MNA unknown table.  A failing circuit is reproduced offline
// from its export_netlist deck (spice/netlist_export.h); nemsim-fuzz
// writes one for every mismatch it finds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "nemsim/spice/lint_types.h"
#include "nemsim/spice/newton.h"
#include "nemsim/util/error.h"
#include "nemsim/util/instrument.h"

namespace nemsim::spice {

/// One rung of the Newton homotopy ladder (plain solve, one gmin decade,
/// one source-stepping factor), with its iteration cost.
struct SteppingStageRecord {
  enum class Kind { kPlain, kGminStep, kSourceStep };
  Kind kind = Kind::kPlain;
  /// gmin value for kGminStep, source factor for kSourceStep, final gmin
  /// for kPlain.
  double value = 0.0;
  int iterations = 0;  ///< Newton iterations spent in this stage
  bool converged = false;
};

/// Location of one rejected transient step (local truncation error).
struct LteRejectRecord {
  double time = 0.0;            ///< end time of the rejected step
  double dt = 0.0;              ///< rejected step size
  double ratio = 0.0;           ///< LTE ratio that triggered the reject
  std::size_t worst_unknown = 0;
  std::string worst_name;       ///< display name of the dominant unknown
};

/// Location of one transient step retried after Newton failed on it.
struct StepFailureRecord {
  double time = 0.0;  ///< end time of the failed step
  double dt = 0.0;    ///< step size that failed
  std::string message;
};

/// Unified per-analysis diagnostics report.
///
/// Attach one via {Op,Transient,DcSweep,MonteCarlo}Options::report; the
/// driver accumulates into it (reports are reusable across runs — values
/// keep adding up until reset()).  Not safe for concurrent mutation; the
/// parallel drivers fill it after their workers join.
struct RunReport {
  /// Caps the per-event record vectors (lte_rejects, step_failures,
  /// notes, newton.refactor_rejects) so a pathological run cannot grow
  /// the report unboundedly; counters keep counting past the cap.
  static constexpr std::size_t kMaxRecords = NewtonStats::kMaxRecords;

  std::string analysis;  ///< "op", "transient", "dc_sweep", "monte_carlo"

  /// Cumulative Newton work over the whole run (all steps/points/trials),
  /// including the sparse refactor rejections and where they happened
  /// (newton.refactor_rejections / newton.refactor_rejects).
  NewtonStats newton;
  /// Homotopy ladder records, in execution order.
  std::vector<SteppingStageRecord> stages;
  /// Bucket i counts Newton solves that finished in i iterations (last
  /// bucket collects everything at/above the bucket count).
  std::vector<std::uint64_t> newton_iteration_histogram;

  // Transient-specific.
  std::size_t accepted_steps = 0;
  std::size_t newton_failures = 0;  ///< step retries due to non-convergence
  std::size_t lte_reject_count = 0;
  double min_dt = 0.0;
  double max_dt = 0.0;
  std::vector<LteRejectRecord> lte_rejects;    ///< first kMaxRecords
  std::vector<StepFailureRecord> step_failures;  ///< first kMaxRecords

  // Sweep / Monte-Carlo.
  std::size_t points = 0;         ///< sweep points or trials attempted
  std::size_t failed_points = 0;  ///< points/trials that threw
  std::vector<std::string> notes;  ///< per-failure notes (first kMaxRecords)

  /// Findings of the pre-simulation lint gate (spice/lint.h) when the
  /// analysis options had lint != kOff; empty otherwise.  Filled before
  /// any Newton work, so on a strict-mode rejection the report holds the
  /// findings while `stages` stays empty.
  std::vector<lint::LintFinding> lint_findings;

  /// Findings of the semantic analysis gate (spice/analyze.h) when the
  /// analysis options had analyze != kOff; empty otherwise.  Same
  /// timing contract as lint_findings: filled before any Newton work.
  std::vector<lint::LintFinding> analyze_findings;

  /// Phase wall-clock ("phase.lint", "phase.analyze", "phase.op",
  /// "phase.stepping") and free-form counters.  Mutex-guarded, so
  /// parallel workers may add to it.
  util::MetricRegistry metrics;

  /// Records one Newton solve's iteration count into the histogram.
  void record_newton_iterations(int iterations);
  /// Appends a note, honoring kMaxRecords.
  void add_note(const std::string& note);

  /// Count of stages by kind (per-stage views of the ladder).
  std::size_t stage_count(SteppingStageRecord::Kind kind) const;
  /// Sum of iterations over all recorded stages.
  int stage_iterations_total() const;
  /// The `k` unknowns named most often in newton.refactor_rejects, with
  /// their counts (most frequent first, ties by first appearance).
  std::vector<std::pair<std::string, std::size_t>> top_refactor_rejects(
      std::size_t k = 3) const;

  /// Clears everything back to a freshly constructed report.
  void reset();

  /// Compact human-readable rendering (for bench output and logs).
  std::string summary() const;
  /// Stable JSON rendering (the figure benches' --diagnostics=path file).
  void write_json(std::ostream& os) const;
};

/// Writes a findings vector as a JSON array of
/// {"severity", "rule", "subject", "message"} objects — the one schema
/// shared by RunReport::write_json's lint_findings / analyze_findings
/// arrays and the `nemsim-lint --json` CLI output, kept in one function
/// so the consumers can't drift apart.
void write_findings_json(std::ostream& os,
                         const std::vector<lint::LintFinding>& findings);

}  // namespace nemsim::spice
