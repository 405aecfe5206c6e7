// nemsim_perf: the repository benchmark driver.
//
//   nemsim_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--git-sha <sha>] [--git-dirty <0|1>] [--trace-out <file>]
//
// Every run sets the workload up, runs the untimed reference analyses and
// one untimed warm-up pass, times batches of set-ups (median = setup_s),
// then:
//
//   --trace 0  times passes with nothing attached for --seconds and
//              reports the end-to-end metrics (medians over passes);
//   --trace 1  alternates untraced passes with traced passes (RunReports
//              and spans attached) for --seconds, probes every layer at the
//              converged state and reports the per-layer metrics.
//
// The last line on stdout is one JSON object with the raw metric values;
// perfbench/run.py adds the units from BENCHMARK.json.  The process exits
// 1 when any analysis failed or missed its output check.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "nemsim/util/logging.h"

namespace perfbench {
namespace {

using nemsim::spice::AnalysisMode;
using nemsim::spice::RunReport;

/// Set-ups are timed in batches of back-to-back repetitions, so that one
/// batch lasts about kSetupBatchSeconds even where one set-up takes well
/// under a millisecond; setup_s is the median over kSetupBatches batches
/// of batch time / repetitions.
constexpr double kSetupBatchSeconds = 0.1;
constexpr std::size_t kSetupBatches = 9;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_sha = "unavailable";
  std::string git_dirty = "unavailable";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      std::size_t used = 0;
      args.seed = std::stoull(value, &used);
      if (used != value.size()) throw std::invalid_argument("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--git-dirty") {
      args.git_dirty = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    throw std::invalid_argument(
        "usage: nemsim_perf --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return args;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Ordered name -> value list (emission order = BENCHMARK.json order).
using Metrics = std::vector<std::pair<std::string, double>>;

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].first) + ": " +
           json_number(metrics[i].second);
  }
  return out + "}";
}

/// Labelled spans of the whole run, written to --trace-out at exit.
struct TraceLog {
  std::vector<std::pair<std::string, SpanLog::Event>> events;
  void add(const std::string& phase, const SpanLog& log) {
    for (const SpanLog::Event& e : log.events()) events.emplace_back(phase, e);
  }
};

/// Work counters of the traced pass, summed over RunReports.
struct Counts {
  double factors = 0, refactors = 0, iterations = 0, solves = 0;
  double assembles = 0, residual_assembles = 0;
  double nonlinear_evals = 0, kernel_lane_evals = 0, homotopy_steps = 0;
  double accepted_steps = 0, lte_rejects = 0, newton_failures = 0;
  double stepping_s = 0, op_s = 0;

  void add(const RunReport& r) {
    factors += static_cast<double>(r.newton.factorizations);
    refactors += static_cast<double>(r.newton.factorization_reuses);
    iterations += r.newton.total_iterations;
    for (std::uint64_t n : r.newton_iteration_histogram) {
      solves += static_cast<double>(n);
    }
    assembles += static_cast<double>(r.newton.assembles);
    residual_assembles += static_cast<double>(r.newton.residual_assembles);
    nonlinear_evals += static_cast<double>(r.newton.nonlinear_evals);
    for (const auto& [bucket, n] : r.newton.kernel_lane_evals) {
      kernel_lane_evals += static_cast<double>(n);
    }
    homotopy_steps += r.newton.gmin_steps + r.newton.source_steps;
    accepted_steps += static_cast<double>(r.accepted_steps);
    lte_rejects += static_cast<double>(r.lte_reject_count);
    newton_failures += static_cast<double>(r.newton_failures);
    stepping_s += r.metrics.get("phase.stepping").seconds;
    op_s += r.metrics.get("phase.op").seconds;
  }
};

/// Runs untraced passes until `budget` seconds have gone (at least one),
/// recording each pass's wall and process CPU seconds.
void untraced_passes(Workload& workload, Tally& tally, double budget,
                     std::vector<double>& walls, std::vector<double>& cpu) {
  const double deadline = wall_seconds() + budget;
  do {
    const double c0 = process_cpu_seconds();
    const double t0 = wall_seconds();
    workload.pass(tally, nullptr);
    walls.push_back(wall_seconds() - t0);
    cpu.push_back(process_cpu_seconds() - c0);
  } while (wall_seconds() < deadline);
}

/// The per-layer metrics of a traced run: counters of the last traced
/// pass, per-call probe costs, and the shares they imply.
Metrics layer_metrics(Workload& workload, const SpanLog& spans,
                      double traced_run_s, double untraced_run_s,
                      const std::vector<double>& all_task_seconds,
                      const SpanLog& setup_spans, double setup_reps,
                      double failed_frac) {
  const std::vector<ProbeTarget> targets = workload.probe_targets();
  Counts total;
  // Sparse factor/refactor counts and dense LUs apart: NewtonStats counts
  // both kinds of factorization in one counter.
  double sparse_factors = 0.0, sparse_refactors = 0.0, dense_lus = 0.0;
  double linalg_s = 0.0, assembly_s = 0.0, devices_s = 0.0;
  std::vector<ProbeCosts> costs;
  for (const ProbeTarget& target : targets) {
    Counts c;
    for (const RunReport* r : target.reports) {
      c.add(*r);
      total.add(*r);
    }
    const ProbeCosts p = probe(target);
    linalg_s += p.sparse ? c.factors * p.factor + c.refactors * p.refactor +
                               c.iterations * p.solve
                         : c.factors * p.dense_lu;
    assembly_s +=
        c.assembles * p.assemble + c.residual_assembles * p.assemble_residual;
    devices_s += (c.assembles + c.residual_assembles) *
                 p.stamps_per_assembly(target.mode);
    (p.sparse ? sparse_factors : dense_lus) += c.factors;
    if (p.sparse) sparse_refactors += c.refactors;
    costs.push_back(p);
  }
  const ProbeCosts primary = costs.empty() ? ProbeCosts{} : costs.front();
  // ns per stamp of a device class: from the first target that has it.
  auto stamp_ns = [&](const char* cls, bool dc) {
    for (const ProbeCosts& p : costs) {
      const auto it = p.stamps.find(cls);
      if (it != p.stamps.end()) {
        return 1e9 * (dc ? it->second.dc : it->second.tran);
      }
    }
    return 0.0;
  };
  const bool primary_dc =
      !targets.empty() &&
      targets.front().mode == AnalysisMode::kDcOperatingPoint;

  const double threads = static_cast<double>(workload.threads());
  const double busy_capacity = threads * traced_run_s;
  const double core_s = workload.core_measure_seconds(spans);
  const double overlay_s = spans.total("variation.overlay");
  // Top-level shares of the pass's thread-seconds; with the unattributed
  // remainder they sum to 1.  devices.share is a share *of assembly*.
  const double linalg_share = ratio(linalg_s, busy_capacity);
  const double assembly_share = ratio(assembly_s, busy_capacity);
  const double core_share = ratio(core_s, busy_capacity);
  const double variation_share = ratio(overlay_s, busy_capacity);

  double task_busy = 0.0;
  for (double s : workload.task_seconds()) task_busy += s;

  return {
      {"linalg.factors", sparse_factors},
      {"linalg.refactors", sparse_refactors},
      {"linalg.refactor_accept_ratio",
       ratio(sparse_refactors, sparse_refactors + sparse_factors)},
      {"linalg.dense_lus", dense_lus},
      {"linalg.factor_us", 1e6 * primary.factor},
      {"linalg.refactor_us", 1e6 * primary.refactor},
      {"linalg.solve_us", 1e6 * primary.solve},
      {"linalg.dense_lu_us", 1e6 * primary.dense_lu},
      {"linalg.fill_nnz", static_cast<double>(primary.fill_nnz)},
      {"linalg.share", linalg_share},
      {"devices.nemfet_dc_ns", stamp_ns("nemfet", true)},
      {"devices.nemfet_tran_ns", stamp_ns("nemfet", false)},
      {"devices.mosfet_ns", stamp_ns("mosfet", primary_dc)},
      {"devices.linear_ns", stamp_ns("linear", primary_dc)},
      {"devices.share", ratio(devices_s, assembly_s)},
      {"spice.assemble_us", 1e6 * primary.assemble},
      {"spice.assemble_residual_us", 1e6 * primary.assemble_residual},
      {"spice.assembly_share", assembly_share},
      {"spice.assembles", total.assembles},
      {"spice.residual_assembles", total.residual_assembles},
      {"spice.nonlinear_evals", total.nonlinear_evals},
      {"spice.kernel_lane_frac",
       ratio(total.kernel_lane_evals, total.nonlinear_evals)},
      {"spice.newton_iters", total.iterations},
      {"spice.iters_per_solve", ratio(total.iterations, total.solves)},
      {"spice.homotopy_steps", total.homotopy_steps},
      {"spice.accepted_steps", total.accepted_steps},
      {"spice.lte_reject_ratio",
       ratio(total.lte_rejects, total.lte_rejects + total.accepted_steps)},
      {"spice.newton_failures", total.newton_failures},
      {"spice.stepping_s", total.stepping_s},
      {"spice.transient_s", spans.total("spice.transient")},
      {"spice.dc_sweep_s", spans.total("spice.dc_sweep")},
      {"spice.op_s", total.op_s},
      {"spice.compile_s", setup_spans.total("spice.compile") / setup_reps},
      {"core.build_s", setup_spans.total("core.build") / setup_reps},
      {"core.measure_s", core_s},
      {"variation.overlay_s", overlay_s},
      {"core.share", core_share},
      {"variation.share", variation_share},
      {"util.parallel_eff", ratio(task_busy, busy_capacity)},
      {"util.task_p50_s", quantile(all_task_seconds, 0.5)},
      {"util.task_p90_s", quantile(all_task_seconds, 0.9)},
      {"unattributed_share",
       1.0 - linalg_share - assembly_share - core_share - variation_share},
      {"trace_overhead_frac", ratio(traced_run_s, untraced_run_s) - 1.0},
      {"failed_frac", failed_frac},
  };
}

int run(const Args& args) {
#ifndef NDEBUG
  throw std::runtime_error("assertions are enabled: refusing to time a "
                           "non-Release build");
#endif
  if (std::string(NEMSIM_PERF_BUILD_TYPE) != "Release") {
    throw std::runtime_error(std::string("build type is '") +
                             NEMSIM_PERF_BUILD_TYPE +
                             "': refusing to time a non-Release build");
  }
  // Lint findings would otherwise be logged on every transient; the gates
  // still run, only their output is dropped.
  nemsim::set_log_level(nemsim::LogLevel::kError);

  const std::size_t cpus = available_cpus();
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, cpus);
  Tally tally;
  TraceLog trace;

  workload->setup(nullptr);
  workload->reference(tally);
  workload->pass(tally, nullptr);  // untimed warm-up

  // Set-up again, timed in batches for a median, now that code and
  // allocator are warm.  Each repetition replaces the circuits the passes
  // run on.  Traced runs record spans here too: the clock reads cost
  // nothing next to building and compiling circuits.  Untraced runs keep
  // none, because the span log would grow with the timing-dependent
  // repetition count and move peak_rss_mb with it.
  SpanLog setup_spans;
  SpanLog* const setup_log = args.trace ? &setup_spans : nullptr;
  const double s0 = wall_seconds();
  workload->setup(setup_log);
  const std::size_t batch_reps = static_cast<std::size_t>(
      std::ceil(kSetupBatchSeconds / std::max(wall_seconds() - s0, 1e-6)));
  std::size_t setup_reps = 1;
  std::vector<double> setup_times;
  for (std::size_t b = 0; b < kSetupBatches; ++b) {
    const double t0 = wall_seconds();
    for (std::size_t r = 0; r < batch_reps; ++r) workload->setup(setup_log);
    setup_times.push_back((wall_seconds() - t0) /
                          static_cast<double>(batch_reps));
    setup_reps += batch_reps;
  }
  trace.add("setup", setup_spans);

  Metrics metrics;
  std::size_t passes = 0;
  if (!args.trace) {
    std::vector<double> walls;
    std::vector<double> cpu;
    untraced_passes(*workload, tally, args.seconds, walls, cpu);
    passes = walls.size();
    metrics = {
        {"run_s", median(walls)},
        {"setup_s", median(setup_times)},
        {"cpu_s", median(cpu)},
        {"peak_rss_mb", peak_rss_mb()},
    };
  } else {
    // Untraced and traced passes alternate, so drift in host speed during
    // the run lands on both sides of trace_overhead_frac alike.
    std::vector<double> untraced;
    std::vector<double> traced;
    std::vector<double> task_seconds;
    std::unique_ptr<SpanLog> last;
    const double deadline = wall_seconds() + args.seconds;
    do {
      const double u0 = wall_seconds();
      workload->pass(tally, nullptr);
      untraced.push_back(wall_seconds() - u0);
      auto spans = std::make_unique<SpanLog>();
      const double t0 = wall_seconds();
      workload->pass(tally, spans.get());
      traced.push_back(wall_seconds() - t0);
      const std::vector<double>& tasks = workload->task_seconds();
      task_seconds.insert(task_seconds.end(), tasks.begin(), tasks.end());
      trace.add("traced_pass_" + std::to_string(traced.size()), *spans);
      last = std::move(spans);
    } while (wall_seconds() < deadline);
    passes = untraced.size() + traced.size();
    // Shares divide the last traced pass's counts by its own wall time.
    metrics = layer_metrics(*workload, *last, traced.back(), median(untraced),
                            task_seconds, setup_spans,
                            static_cast<double>(setup_reps),
                            ratio(static_cast<double>(tally.failed),
                                  static_cast<double>(tally.attempted)));
  }

  std::ostringstream provenance;
  provenance << "{\"workload\": " << json_string(args.workload)
             << ", \"seed\": " << args.seed
             << ", \"git_sha\": " << json_string(args.git_sha)
             << ", \"git_dirty\": " << json_string(args.git_dirty)
             << ", \"build_type\": " << json_string(NEMSIM_PERF_BUILD_TYPE)
             << ", \"nproc\": " << cpus
             << ", \"threads\": " << workload->threads()
             << ", \"trace\": " << (args.trace ? 1 : 0)
             << ", \"seconds\": " << json_number(args.seconds)
             << ", \"setup_reps\": " << setup_reps
             << ", \"timed_passes\": " << passes << "}";
  std::cout << "# provenance " << provenance.str() << "\n";
  for (const std::string& note : tally.notes) {
    std::cerr << "nemsim_perf: FAILED " << note << "\n";
  }

  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << "{\"provenance\": " << provenance.str()
        << ",\n \"metrics\": " << metrics_json(metrics) << ",\n \"spans\": [";
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      const auto& [phase, e] = trace.events[i];
      out << (i ? ",\n  " : "\n  ") << "{\"phase\": " << json_string(phase)
          << ", \"name\": " << json_string(e.name)
          << ", \"start\": " << json_number(e.start)
          << ", \"seconds\": " << json_number(e.seconds)
          << ", \"task\": " << e.task << "}";
    }
    out << "\n]}\n";
    if (!out) std::cerr << "nemsim_perf: could not write " << args.trace_out << "\n";
  }

  const bool correct = tally.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "nemsim_perf: " << e.what() << "\n";
    return 2;
  }
}
