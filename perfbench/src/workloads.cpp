// The three benchmark workloads, each built from a paper figure:
//
//   column_read  Section 5.1 / ablation_sram_column: one read of a
//                structural 64-cell bitline column per cell kind.  One
//                long serial transient per read on a ~390-device sparse
//                system; the hybrid read re-pivots the sparse LU over and
//                over, so this is the workload for linalg and step-control
//                changes.
//   snm_mc       Figure 14 / mc_batch_butterfly: Monte-Carlo SNM of the
//                hybrid butterfly on two compiled half-cells.  About 20
//                unknowns on the dense path, so NEMFET DC equilibrium
//                dominates and sparse LU does no work: the workload for
//                device and DC-homotopy changes, and the no-change control
//                for linalg changes.
//   domino_mc    Figures 9-10: Monte-Carlo over the CMOS and hybrid
//                8-input dynamic OR (delay, switching power, noise-margin
//                bisection).  Many short transients on small circuits fanned
//                out through util::parallel_map: the workload for assembly,
//                kernel-lane and thread-scaling changes.
#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "harness.h"
#include "nemsim/core/dynamic_or.h"
#include "nemsim/core/sram.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/compile.h"
#include "nemsim/spice/measure.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/error.h"
#include "nemsim/util/parallel.h"
#include "nemsim/util/rng.h"
#include "nemsim/util/root.h"
#include "nemsim/variation/montecarlo.h"

namespace perfbench {
namespace {

using namespace nemsim;
using core::SramKind;
using devices::SourceWave;
using devices::VoltageSource;
using spice::AnalysisMode;
using spice::CompiledCircuit;

/// The seed whose outputs are compared with the pinned values below.  At
/// any other seed the paper's shape invariants are checked instead.
constexpr std::uint64_t kDefaultSeed = 1;

/// Relative band around the pinned outputs.  The engine is deterministic,
/// so a drift is a behaviour change; the band only leaves room for
/// last-bit reordering (kernel lanes, pivot policy), which moves a
/// latency, delay or energy by far less than 0.1 %.
constexpr double kPinnedRelTol = 1e-3;

/// Step of the transient-mode stamp probes.
constexpr double kProbeDt = 1e-12;

bool near(double value, double pinned, double rel = kPinnedRelTol) {
  return std::abs(value - pinned) <= rel * std::abs(pinned);
}

std::string show(double value) {
  std::ostringstream os;
  os.precision(10);
  os << value;
  return os.str();
}

double mean_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double stddev_of(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean_of(v);
  double sum = 0.0;
  for (double x : v) sum += (x - m) * (x - m);
  return std::sqrt(sum / static_cast<double>(v.size() - 1));
}

/// The iterate at the last sample of `wave`, which records every unknown.
linalg::Vector final_state(const spice::MnaSystem& system,
                           const spice::Waveform& wave) {
  linalg::Vector x(system.num_unknowns());
  const std::size_t last = wave.num_samples() - 1;
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = wave.sample(wave.signal_index(system.unknown_info(i).name), last);
  }
  return x;
}

/// Compile options of every set-up: the lint and analyze gates run once
/// at compile time, so they count toward setup_s.
spice::CompileOptions compile_options() {
  spice::CompileOptions options;
  options.lint = lint::LintMode::kWarn;
  options.analyze = lint::LintMode::kWarn;
  return options;
}

// ------------------------------------------------------------ column_read

constexpr std::size_t kColumnCells = 64;
constexpr double kColumnTstop = 3e-9;
constexpr double kSenseMargin = 0.1;

/// Structural read latencies at kDefaultSeed, in ps.
constexpr double kPinnedConvLatencyPs = 39.03793345;
constexpr double kPinnedHybridLatencyPs = 68.73846831;

/// The read testbench of core::measure_column_read_latency_structural:
/// a bitline precharge pair switched off before the wordline pulse.  The
/// reference check pins the replica to the helper.
void dress_read_bench(spice::Circuit& ckt, double vdd, double l) {
  const spice::NodeId pc = ckt.node("pc");
  ckt.add<devices::Mosfet>("Mpcl", ckt.find_node("bl"), pc,
                           ckt.find_node("vdd"), devices::MosPolarity::kPmos,
                           tech::pmos_90nm(), 1e-6, l);
  ckt.add<devices::Mosfet>("Mpcr", ckt.find_node("blb"), pc,
                           ckt.find_node("vdd"), devices::MosPolarity::kPmos,
                           tech::pmos_90nm(), 1e-6, l);
  ckt.add<VoltageSource>(
      "Vpc", pc, ckt.gnd(),
      SourceWave::pulse(0.0, vdd, 0.2e-9, 20e-12, 20e-12, 1.0));
  ckt.find<VoltageSource>("Vwl").set_wave(
      SourceWave::pulse(0.0, vdd, 0.4e-9, 20e-12, 20e-12, 1.0));
}

/// Wordline 50 % to the bitline differential reaching the sense margin.
/// The accessed cell stores 0, so "bl" discharges against "blb".
double sense_latency(const spice::Waveform& wave, double vdd) {
  const double t_wl =
      spice::cross_time(wave, "v(wl)", 0.5 * vdd, spice::Edge::kRising);
  const std::size_t s_read = wave.signal_index("v(bl)");
  const std::size_t s_ref = wave.signal_index("v(blb)");
  const auto& ts = wave.times();
  for (std::size_t k = 1; k < ts.size(); ++k) {
    if (ts[k] < t_wl) continue;
    const double diff = wave.sample(s_ref, k) - wave.sample(s_read, k);
    if (diff >= kSenseMargin) {
      const double d0 = wave.sample(s_ref, k - 1) - wave.sample(s_read, k - 1);
      const double frac = (kSenseMargin - d0) / (diff - d0);
      return ts[k - 1] + frac * (ts[k] - ts[k - 1]) - t_wl;
    }
  }
  throw MeasurementError("column read: sense margin never reached");
}

class ColumnRead final : public Workload {
 public:
  explicit ColumnRead(std::uint64_t seed)
      : seed_(seed),
        row_(static_cast<std::size_t>(Rng(seed).index(kColumnCells))) {}

  void setup(SpanLog* spans) override {
    reads_.clear();
    // Hybrid first: it is the heaviest circuit and the primary probe.
    for (SramKind kind : {SramKind::kHybrid, SramKind::kConventional}) {
      const core::SramColumnConfig config = column_config(kind);
      core::SramColumn column;
      {
        Span span(spans, "core.build");
        column = core::build_sram_column(config);
        dress_read_bench(column.ckt(), config.cell.vdd, config.cell.l);
      }
      Span span(spans, "spice.compile");
      auto read = std::make_unique<Read>(
          config, spice::compile(std::move(column.ckt()), compile_options()));
      spice::MnaSystem& system = read->compiled.system();
      core::nodeset_column_state(system, column);
      system.set_nodeset(system.circuit().find_node("bl"), config.cell.vdd);
      system.set_nodeset(system.circuit().find_node("blb"), config.cell.vdd);
      reads_.push_back(std::move(read));
    }
  }

  void pass(Tally& tally, SpanLog* spans) override {
    task_seconds_.clear();
    for (auto& read : reads_) {
      const double t0 = spans ? wall_seconds() : 0.0;
      read->report.reset();
      read->latency = 0.0;
      ++tally.attempted;
      try {
        spice::TransientOptions options;
        options.newton = read->config.cell.newton;
        options.tstop = kColumnTstop;
        options.dt_initial = 1e-13;
        options.report = spans ? &read->report : nullptr;
        const spice::Waveform wave = [&] {
          Span span(spans, "spice.transient");
          return read->compiled.run_transient(options);
        }();
        {
          Span span(spans, "core.measure");
          read->latency = sense_latency(wave, core::SramConfig{}.vdd);
        }
        if (spans) {
          read->probe_x = final_state(read->compiled.system(), wave);
          read->probe_time = wave.end_time();
        }
      } catch (const std::exception& e) {
        tally.fail(std::string(core::sram_kind_name(read->config.cell.kind)) +
                   " column read: " + e.what());
      }
      if (spans) task_seconds_.push_back(wall_seconds() - t0);
    }
    check_outputs(tally);
  }

  std::vector<ProbeTarget> probe_targets() override {
    std::vector<ProbeTarget> targets;
    for (auto& read : reads_) {
      if (read->probe_x.size() != read->compiled.system().num_unknowns()) {
        continue;  // the read failed; nothing converged to probe at
      }
      ProbeTarget target;
      target.system = &read->compiled.system();
      target.x = read->probe_x;
      target.mode = AnalysisMode::kTransient;
      target.dt = kProbeDt;
      target.time = read->probe_time + kProbeDt;
      target.reports = {&read->report};
      targets.push_back(std::move(target));
    }
    return targets;
  }

  /// core::measure_column_read_latency_structural on both columns.  Every
  /// pass must reproduce these latencies exactly.
  void reference(Tally& tally) override {
    for (SramKind kind : {SramKind::kHybrid, SramKind::kConventional}) {
      ++tally.attempted;
      try {
        helper_latency_.push_back(
            core::measure_column_read_latency_structural(column_config(kind),
                                                         kSenseMargin));
      } catch (const std::exception& e) {
        helper_latency_.push_back(0.0);
        tally.fail(std::string(core::sram_kind_name(kind)) +
                   " reference column read: " + e.what());
      }
    }
  }

 private:
  struct Read {
    Read(const core::SramColumnConfig& c, CompiledCircuit cc)
        : config(c), compiled(std::move(cc)) {}
    core::SramColumnConfig config;
    CompiledCircuit compiled;
    spice::RunReport report;
    double latency = 0.0;
    linalg::Vector probe_x;
    double probe_time = 0.0;
  };

  core::SramColumnConfig column_config(SramKind kind) const {
    core::SramColumnConfig config;
    config.cell.kind = kind;
    config.n_cells = kColumnCells;
    config.active_cell = row_;
    return config;
  }

  void check_outputs(Tally& tally) const {
    for (std::size_t i = 0; i < reads_.size(); ++i) {
      const Read& read = *reads_[i];
      tally.check(read.latency == helper_latency_[i],
                  std::string(core::sram_kind_name(read.config.cell.kind)) +
                      " column latency " + show(read.latency * 1e12) +
                      " ps differs from the structural helper's " +
                      show(helper_latency_[i] * 1e12) + " ps");
    }
    const double hybrid_ps = reads_[0]->latency * 1e12;
    const double conv_ps = reads_[1]->latency * 1e12;
    if (seed_ == kDefaultSeed) {
      tally.check(near(conv_ps, kPinnedConvLatencyPs),
                  "conventional column latency " + show(conv_ps) +
                      " ps, pinned " + show(kPinnedConvLatencyPs));
      tally.check(near(hybrid_ps, kPinnedHybridLatencyPs),
                  "hybrid column latency " + show(hybrid_ps) +
                      " ps, pinned " + show(kPinnedHybridLatencyPs));
    } else {
      tally.check(conv_ps > 0.0 && hybrid_ps > conv_ps,
                  "hybrid column latency " + show(hybrid_ps) +
                      " ps not above conventional " + show(conv_ps) + " ps");
    }
  }

  std::uint64_t seed_;
  std::size_t row_;
  std::vector<std::unique_ptr<Read>> reads_;
  std::vector<double> helper_latency_;  ///< reads_ order
};

// ----------------------------------------------------------------- snm_mc

constexpr std::size_t kSnmTrials = 16;
constexpr std::size_t kSnmPoints = 121;
constexpr double kSnmSigma = 0.06;

/// Hybrid SNM mean and standard deviation over the trials at
/// kDefaultSeed, in mV.  The deviation is a difference of nearby samples,
/// so it gets ten times the relative band.
constexpr double kPinnedSnmMeanMv = 101.0299982;
constexpr double kPinnedSnmStdMv = 4.520797237;
/// integration_test's HybridSramTradeoffs band on hybrid / conventional
/// SNM (0.86 +/- 0.08), applied to the Monte-Carlo mean.
constexpr double kSnmRatioLo = 0.78;
constexpr double kSnmRatioHi = 0.94;

/// One butterfly half-cell testbench (read condition, storage node driven
/// by "Vsweep"), as core::measure_butterfly builds it.  The reference
/// check pins the replica to the helper.
spice::Circuit make_half_cell(SramKind kind, bool drive_ql) {
  core::SramConfig config;
  config.kind = kind;
  core::SramBenchMode mode;
  mode.drive_bitlines = true;
  mode.wordline = config.vdd;
  core::SramCell cell = core::build_sram_cell(config, mode);
  spice::Circuit ckt = std::move(cell.ckt());
  const char* driven = drive_ql ? core::SramCell::kQl : core::SramCell::kQr;
  ckt.add<VoltageSource>("Vsweep", ckt.find_node(driven), ckt.gnd(),
                         SourceWave::dc(0.0));
  return ckt;
}

class SnmMc final : public Workload {
 public:
  explicit SnmMc(std::uint64_t seed)
      : seed_(seed),
        points_(spice::linspace(0.0, core::SramConfig{}.vdd, kSnmPoints)) {}

  void setup(SpanLog* spans) override {
    halves_.clear();
    // Hybrid pair first (the passes and the primary probe), then the
    // conventional pair the reference SNM comes from.
    for (SramKind kind : {SramKind::kHybrid, SramKind::kConventional}) {
      for (bool drive_ql : {true, false}) {
        spice::Circuit ckt = [&] {
          Span span(spans, "core.build");
          return make_half_cell(kind, drive_ql);
        }();
        Span span(spans, "spice.compile");
        halves_.push_back(std::make_unique<Half>(
            drive_ql, spice::compile(std::move(ckt), compile_options())));
      }
    }
  }

  /// Nominal SNM of both cell kinds on the replica half-cells, each
  /// pinned to core::measure_butterfly.  The conventional one is the
  /// denominator of the shape check.
  void reference(Tally& tally) override {
    for (SramKind kind : {SramKind::kHybrid, SramKind::kConventional}) {
      const std::string name = core::sram_kind_name(kind);
      ++tally.attempted;
      try {
        core::SramConfig config;
        config.kind = kind;
        const double helper = core::measure_butterfly(config, kSnmPoints).snm;
        const double replica =
            snm(kind == SramKind::kHybrid ? 0 : 2, std::nullopt, nullptr);
        tally.check(replica == helper,
                    name + " nominal SNM replica " + show(replica * 1e3) +
                        " mV differs from core::measure_butterfly " +
                        show(helper * 1e3) + " mV");
        if (kind == SramKind::kConventional) snm_conv_ = replica;
      } catch (const std::exception& e) {
        tally.fail(name + " reference SNM: " + e.what());
      }
    }
  }

  void pass(Tally& tally, SpanLog* spans) override {
    task_seconds_.clear();
    for (auto& half : halves_) half->report.reset();
    std::vector<double> samples;
    for (std::size_t trial = 0; trial < kSnmTrials; ++trial) {
      const double t0 = spans ? wall_seconds() : 0.0;
      ++tally.attempted;
      try {
        samples.push_back(snm(0, trial, spans));
      } catch (const std::exception& e) {
        tally.fail("SNM trial " + std::to_string(trial) + ": " + e.what());
      }
      if (spans) task_seconds_.push_back(wall_seconds() - t0);
    }
    halves_[0]->compiled.clear_overlay();
    halves_[1]->compiled.clear_overlay();
    check_outputs(tally, samples);
  }

  std::vector<ProbeTarget> probe_targets() override {
    std::vector<ProbeTarget> targets;
    for (std::size_t i = 0; i < 2; ++i) {
      Half& half = *halves_[i];
      if (half.probe_x.size() != half.compiled.system().num_unknowns()) {
        continue;
      }
      ProbeTarget target;
      target.system = &half.compiled.system();
      target.x = half.probe_x;
      target.mode = AnalysisMode::kDcOperatingPoint;
      target.dt = kProbeDt;
      target.time = kProbeDt;
      target.reports = {&half.report};
      targets.push_back(std::move(target));
    }
    return targets;
  }

 private:
  struct Half {
    Half(bool d, CompiledCircuit c) : drive_ql(d), compiled(std::move(c)) {}
    bool drive_ql;
    CompiledCircuit compiled;
    spice::RunReport report;
    linalg::Vector probe_x;
  };

  /// SNM of the half-cell pair at halves_[first], under trial `trial`'s
  /// variation draw, or nominal when there is none.
  double snm(std::size_t first, std::optional<std::size_t> trial,
             SpanLog* spans) {
    std::vector<double> curves[2];
    for (std::size_t side = 0; side < 2; ++side) {
      Half& half = *halves_[first + side];
      {
        Span span(spans, "variation.overlay");
        if (trial) {
          // Both halves share the device build order, so re-deriving the
          // child stream applies the identical draw to each.
          Rng stream = Rng(seed_).child(*trial);
          half.compiled.set_overlay(variation::vth_variation_patch(
              half.compiled.circuit(), kSnmSigma, stream));
        } else {
          half.compiled.clear_overlay();
        }
      }
      auto& sweep_source =
          half.compiled.circuit().find<VoltageSource>("Vsweep");
      spice::DcSweepOptions options;
      options.report = spans ? &half.report : nullptr;
      const spice::Waveform sweep = [&] {
        Span span(spans, "spice.dc_sweep");
        return half.compiled.run_dc_sweep(
            [&](double v) { sweep_source.set_dc(v); }, points_, options);
      }();
      curves[side] = sweep.series(half.drive_ql ? "v(Xcell.qr)" : "v(Xcell.ql)");
      if (spans) half.probe_x = final_state(half.compiled.system(), sweep);
    }
    Span span(spans, "core.measure");
    return core::extract_snm(points_, curves[0], curves[1]);
  }

  void check_outputs(Tally& tally, const std::vector<double>& samples) const {
    const double mean_mv = mean_of(samples) * 1e3;
    const double std_mv = stddev_of(samples) * 1e3;
    if (seed_ == kDefaultSeed) {
      tally.check(near(mean_mv, kPinnedSnmMeanMv),
                  "hybrid SNM mean " + show(mean_mv) + " mV, pinned " +
                      show(kPinnedSnmMeanMv));
      tally.check(near(std_mv, kPinnedSnmStdMv, 10.0 * kPinnedRelTol),
                  "hybrid SNM std " + show(std_mv) + " mV, pinned " +
                      show(kPinnedSnmStdMv));
    } else {
      const double ratio = snm_conv_ > 0.0 ? mean_mv * 1e-3 / snm_conv_ : 0.0;
      tally.check(ratio >= kSnmRatioLo && ratio <= kSnmRatioHi,
                  "hybrid / conventional SNM " + show(ratio) +
                      " outside the integration_test band");
    }
  }

  std::uint64_t seed_;
  std::vector<double> points_;
  std::vector<std::unique_ptr<Half>> halves_;
  double snm_conv_ = 0.0;
};

// -------------------------------------------------------------- domino_mc

/// Even tasks are CMOS gates (delay, power, noise margin: fig09), odd
/// tasks hybrid (delay, power: fig10); fan-out cycles through FO1-FO3.
constexpr std::size_t kDominoTasks = 16;
constexpr double kDominoSigma = 0.05;
constexpr double kNmResolution = 0.025;  // fig09's bisection resolution
constexpr std::size_t kMaxDominoThreads = 4;

/// Per-kind means over the tasks at kDefaultSeed.  The noise margin
/// (CMOS only) is a bisection result, so it is pinned to within one
/// resolution step.
struct DominoOutputs {
  double delay_ps = 0.0;
  double power_uw = 0.0;
  double nm_v = 0.0;
};
constexpr DominoOutputs kPinnedCmos{148.7197657, 23.89947623, 0.48515625};
constexpr DominoOutputs kPinnedHybrid{195.1006603, 11.50231558, 0.0};

core::DynamicOrConfig domino_config(std::size_t task) {
  core::DynamicOrConfig config;
  config.fanin = 8;
  config.hybrid = task % 2 == 1;
  config.fanout = static_cast<int>(task / 2 % 3) + 1;
  return config;
}

double cycle_time(const core::DynamicOrConfig& c) {
  return c.t_precharge + c.t_evaluate + 2.0 * c.t_edge;
}

/// The quiescent testbench of dynamic_or.cpp: free-running clock, every
/// input parked at 0 V.
void park_sources(core::DynamicOrGate& gate) {
  const core::DynamicOrConfig& c = gate.config;
  spice::Circuit& ckt = gate.ckt();
  ckt.find<VoltageSource>("Vclk").set_wave(
      SourceWave::pulse(0.0, c.vdd, c.t_precharge, c.t_edge, c.t_edge,
                        c.t_evaluate, cycle_time(c)));
  for (int i = 0; i < c.fanin; ++i) {
    ckt.find<VoltageSource>(gate.input_source(i)).set_dc(0.0);
  }
}

/// core::measure_noise_margin with a RunReport and spans on every
/// bisection transient (the helper takes neither).  The reference check
/// pins it to the helper.
double noise_margin(core::DynamicOrGate& gate, spice::RunReport* report,
                    SpanLog* spans, std::size_t task) {
  spice::Circuit& ckt = gate.ckt();
  const core::DynamicOrConfig& c = gate.config;
  auto tolerates = [&](double v_noise) {
    park_sources(gate);
    for (int i = 0; i < c.fanin; ++i) {
      ckt.find<VoltageSource>(gate.input_source(i))
          .set_wave(SourceWave::pulse(0.0, v_noise, c.t_precharge + c.t_edge,
                                      c.t_edge, c.t_edge, c.t_evaluate));
    }
    spice::TransientOptions options;
    options.newton = c.newton;
    options.tstop = c.t_precharge + c.t_edge + c.t_evaluate;
    options.dt_initial = 1e-13;
    options.report = report;
    std::optional<spice::Waveform> wave;
    try {
      Span span(spans, "spice.transient", task);
      spice::MnaSystem system(ckt);
      wave.emplace(spice::transient(system, options));
    } catch (const ConvergenceError&) {
      return false;  // numerical collapse counts as gate failure
    }
    Span span(spans, "core.measure", task);
    return spice::max_value(*wave, "v(out)", c.t_precharge,
                            wave->end_time()) < 0.5 * c.vdd;
  };
  const double nm = monotone_threshold(tolerates, 0.0, c.vdd, kNmResolution);
  park_sources(gate);
  return nm;
}

class DominoMc final : public Workload {
 public:
  DominoMc(std::uint64_t seed, std::size_t cpus)
      : seed_(seed), threads_(std::min(cpus, kMaxDominoThreads)) {}

  std::size_t threads() const override { return threads_; }

  void setup(SpanLog* spans) override {
    tasks_.clear();
    for (std::size_t i = 0; i < kDominoTasks; ++i) {
      auto task = std::make_unique<Task>();
      Span span(spans, "core.build");
      task->gate = core::build_dynamic_or(domino_config(i));
      tasks_.push_back(std::move(task));
    }
  }

  void reference(Tally& tally) override {
    ++tally.attempted;
    try {
      core::DynamicOrGate gate = core::build_dynamic_or(domino_config(0));
      const double helper = core::measure_noise_margin(gate, kNmResolution);
      const double replica = noise_margin(gate, nullptr, nullptr, 0);
      tally.check(helper == replica,
                  "noise-margin replica " + show(replica) +
                      " V differs from core::measure_noise_margin " +
                      show(helper) + " V");
    } catch (const std::exception& e) {
      tally.fail(std::string("noise-margin reference: ") + e.what());
    }
  }

  void pass(Tally& tally, SpanLog* spans) override {
    util::parallel_map(
        kDominoTasks,
        [&](std::size_t i) {
          run_task(i, spans);
          return 0;
        },
        threads_);
    task_seconds_.clear();
    for (std::size_t i = 0; i < kDominoTasks; ++i) {
      const Task& task = *tasks_[i];
      ++tally.attempted;
      if (!task.error.empty()) {
        tally.fail("domino task " + std::to_string(i) + ": " + task.error);
      }
      if (spans) task_seconds_.push_back(task.busy);
    }
    check_outputs(tally);
  }

  std::vector<ProbeTarget> probe_targets() override {
    probe_gates_.clear();
    std::vector<ProbeTarget> targets;
    for (bool hybrid : {true, false}) {
      auto probe = std::make_unique<ProbeGate>();
      probe->gate = core::build_dynamic_or(domino_config(hybrid ? 1 : 0));
      probe->system = std::make_unique<spice::MnaSystem>(probe->gate.ckt());
      spice::TransientOptions options;
      options.tstop = cycle_time(probe->gate.config);
      options.dt_initial = 1e-13;
      const spice::Waveform wave = spice::transient(*probe->system, options);

      ProbeTarget target;
      target.system = probe->system.get();
      target.x = final_state(*probe->system, wave);
      target.mode = AnalysisMode::kTransient;
      target.dt = kProbeDt;
      target.time = wave.end_time() + kProbeDt;
      for (std::size_t i = hybrid ? 1 : 0; i < kDominoTasks; i += 2) {
        target.reports.push_back(&tasks_[i]->gate_report);
        target.reports.push_back(&tasks_[i]->nm_report);
      }
      probe_gates_.push_back(std::move(probe));
      targets.push_back(std::move(target));
    }
    return targets;
  }

  /// Core-side time: the noise-margin peak search, plus whatever
  /// measure_dynamic_or spends outside its op and stepping phases
  /// (MnaSystem construction, lint gate, waveform measurements).
  double core_measure_seconds(const SpanLog& spans) const override {
    double solver = 0.0;
    for (const auto& task : tasks_) {
      solver += task->gate_report.metrics.get("phase.op").seconds +
                task->gate_report.metrics.get("phase.stepping").seconds;
    }
    return spans.total("core.measure") + spans.total("core.dynamic_or") -
           solver;
  }

 private:
  struct Task {
    core::DynamicOrGate gate;
    spice::RunReport gate_report;  ///< measure_dynamic_or's analyses
    spice::RunReport nm_report;    ///< the noise-margin bisection
    core::DynamicOrMetrics metrics;
    double nm = 0.0;
    std::string error;
    double busy = 0.0;
  };
  struct ProbeGate {
    core::DynamicOrGate gate;
    std::unique_ptr<spice::MnaSystem> system;
  };

  void run_task(std::size_t i, SpanLog* spans) {
    Task& task = *tasks_[i];
    const double t0 = spans ? wall_seconds() : 0.0;
    task.gate_report.reset();
    task.nm_report.reset();
    task.error.clear();
    try {
      {
        Span span(spans, "variation.overlay", i);
        Rng stream = Rng(seed_).child(i);
        variation::apply_vth_variation(task.gate.ckt(), kDominoSigma, stream);
      }
      {
        Span span(spans, "core.dynamic_or", i);
        task.metrics = core::measure_dynamic_or(
            task.gate, spans ? &task.gate_report : nullptr);
      }
      // fig09's noise-margin bisection is a CMOS keeper study; on the
      // hybrid gate its high-noise transients re-pivot the sparse LU
      // constantly, which would turn this workload into a second
      // column_read.
      if (!task.gate.config.hybrid) {
        task.nm = noise_margin(task.gate, spans ? &task.nm_report : nullptr,
                               spans, i);
      }
    } catch (const std::exception& e) {
      task.error = e.what();
    }
    {
      Span span(spans, "variation.overlay", i);
      variation::clear_vth_variation(task.gate.ckt());
    }
    if (spans) task.busy = wall_seconds() - t0;
  }

  DominoOutputs means(bool hybrid) const {
    std::vector<double> delay, power, nm;
    for (std::size_t i = hybrid ? 1 : 0; i < kDominoTasks; i += 2) {
      const Task& task = *tasks_[i];
      if (!task.error.empty()) continue;
      delay.push_back(task.metrics.worst_case_delay * 1e12);
      power.push_back(task.metrics.switching_power * 1e6);
      nm.push_back(task.nm);
    }
    return {mean_of(delay), mean_of(power), mean_of(nm)};
  }

  void check_outputs(Tally& tally) const {
    const DominoOutputs cmos = means(false);
    const DominoOutputs hybrid = means(true);
    if (seed_ == kDefaultSeed) {
      auto check_kind = [&](const std::string& kind, const DominoOutputs& got,
                            const DominoOutputs& pinned) {
        tally.check(near(got.delay_ps, pinned.delay_ps),
                    kind + " OR8 mean delay " + show(got.delay_ps) +
                        " ps, pinned " + show(pinned.delay_ps));
        tally.check(near(got.power_uw, pinned.power_uw),
                    kind + " OR8 mean switching power " + show(got.power_uw) +
                        " uW, pinned " + show(pinned.power_uw));
      };
      check_kind("CMOS", cmos, kPinnedCmos);
      check_kind("hybrid", hybrid, kPinnedHybrid);
      tally.check(std::abs(cmos.nm_v - kPinnedCmos.nm_v) <= kNmResolution,
                  "CMOS OR8 mean noise margin " + show(cmos.nm_v) +
                      " V, pinned " + show(kPinnedCmos.nm_v));
    } else {
      tally.check(hybrid.power_uw > 0.0 && hybrid.power_uw < cmos.power_uw,
                  "hybrid OR8 switching power " + show(hybrid.power_uw) +
                      " uW not below CMOS " + show(cmos.power_uw) + " uW");
    }
  }

  std::uint64_t seed_;
  std::size_t threads_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::unique_ptr<ProbeGate>> probe_gates_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, std::size_t cpus) {
  if (name == "column_read") return std::make_unique<ColumnRead>(seed);
  if (name == "snm_mc") return std::make_unique<SnmMc>(seed);
  if (name == "domino_mc") return std::make_unique<DominoMc>(seed, cpus);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
