// Shared plumbing of the nemsim_perf benchmark driver: clocks, spans,
// outcome tallies, the layer probes and the workload interface.
//
// Everything here observes the library from outside: spans wrap the
// driver's own calls into each layer, counters come from the RunReport
// sinks the public analysis drivers already fill, and probes time each
// layer's public entry points one at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nemsim/linalg/matrix.h"
#include "nemsim/spice/device.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/engine.h"

namespace perfbench {

namespace linalg = nemsim::linalg;
namespace spice = nemsim::spice;

/// Monotonic wall-clock seconds.
double wall_seconds();
/// CPU seconds (user + system) of the whole process, all threads.
double process_cpu_seconds();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();
/// CPUs this process may run on (its affinity mask), at least 1.
std::size_t available_cpus();

double median(std::vector<double> values);
/// Linearly interpolated quantile `q` in [0, 1]; 0 for no values.
double quantile(std::vector<double> values, double q);

/// Spans of a traced pass or set-up: one event per call the driver makes
/// into a layer.  Kept in memory and written out when the run ends.
/// Thread safe, because the parallel workload records from its tasks.
class SpanLog {
 public:
  struct Event {
    std::string name;
    double start = 0.0;    ///< wall_seconds() at entry
    double seconds = 0.0;
    std::size_t task = 0;  ///< task index inside its pass (0 when serial)
  };

  void record(const char* name, double start, double seconds,
              std::size_t task);
  /// Summed duration of every event named `name`.
  double total(const std::string& name) const;
  std::vector<Event> events() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// Times one call into a layer; free when `log` is null (untraced runs
/// never read the clock here).
class Span {
 public:
  Span(SpanLog* log, const char* name, std::size_t task = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  std::size_t task_;
  double start_ = 0.0;
};

/// Operations attempted and failed over a run: every analysis, and every
/// output check.  An analysis fails when it throws, a check when the
/// outputs miss it.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;  ///< first failure descriptions

  void fail(const std::string& why);
  /// One output check.
  void check(bool ok, const std::string& what);
};

/// One circuit the traced run attributes time to: its live MNA system, a
/// converged iterate to probe at, and the RunReports its analyses filled
/// during the last traced pass.
struct ProbeTarget {
  spice::MnaSystem* system = nullptr;
  linalg::Vector x;
  /// Mode the circuit's analyses spend their assemblies in.
  spice::AnalysisMode mode = spice::AnalysisMode::kTransient;
  double time = 0.0;  ///< probe time for transient-mode stamps
  double dt = 0.0;    ///< probe step for transient-mode stamps
  std::vector<const spice::RunReport*> reports;
};

/// Host cost per call of each layer's public entry points, timed in a
/// loop at a target's converged state.  Seconds per call.
struct ProbeCosts {
  bool sparse = false;       ///< the Newton solver takes the sparse path
  std::size_t fill_nnz = 0;  ///< nonzeros of the sparse L+U
  double factor = 0.0;       ///< SparseLuFactorization::factor
  double refactor = 0.0;     ///< SparseLuFactorization::refactor
  double solve = 0.0;        ///< SparseLuFactorization::solve_in_place
  double dense_lu = 0.0;     ///< LuDecomposition plus one solve
  double assemble = 0.0;     ///< full assembly on the solver's path
  double assemble_residual = 0.0;

  /// Device::stamp cost by device class ("nemfet", "mosfet", "linear",
  /// "other"): devices in the class and seconds per call in each mode.
  struct Stamp {
    std::size_t devices = 0;
    double dc = 0.0;
    double tran = 0.0;
  };
  std::map<std::string, Stamp> stamps;

  /// Summed stamp cost of every device for one assembly in `mode`.
  double stamps_per_assembly(spice::AnalysisMode mode) const;
};

ProbeCosts probe(const ProbeTarget& target);

/// One benchmark workload.  Passes repeat the same analyses on the same
/// seed-derived inputs, so every pass does the same work and must give
/// the same outputs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Worker threads the passes run on.
  virtual std::size_t threads() const { return 1; }
  /// Builds and compiles every circuit the passes use, replacing any
  /// earlier set-up.  Timed as setup_s.
  virtual void setup(SpanLog* spans) = 0;
  /// Untimed reference analyses the output check needs, run once after
  /// set-up (their failures count like any other).
  virtual void reference(Tally& tally) { (void)tally; }
  /// One pass: every analysis and measurement of the workload, with the
  /// outputs checked into `tally`.  A non-null `spans` makes it a traced
  /// pass: RunReports are attached and task busy times recorded.
  virtual void pass(Tally& tally, SpanLog* spans) = 0;
  /// Circuits to probe, carrying the counters of the last traced pass.
  /// The first target is the workload's heaviest circuit.
  virtual std::vector<ProbeTarget> probe_targets() = 0;
  /// Seconds the last traced pass spent in core measurement code outside
  /// the solver phases.
  virtual double core_measure_seconds(const SpanLog& spans) const;

  /// Busy seconds of each task of the last traced pass.
  const std::vector<double>& task_seconds() const { return task_seconds_; }

 protected:
  std::vector<double> task_seconds_;
};

/// Builds the named workload for `seed`; `cpus` caps its thread count.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, std::size_t cpus);

}  // namespace perfbench
