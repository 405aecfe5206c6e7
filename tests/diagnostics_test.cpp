// Run-diagnostics tests: crossing semantics, structured ConvergenceError
// payloads, RunReport accounting, and the coincident-breakpoint
// regression.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "nemsim/core/dynamic_or.h"
#include "nemsim/devices/diode.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/measure.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/units.h"

namespace nemsim {
namespace {

using namespace nemsim::literals;
using devices::Capacitor;
using devices::Diode;
using devices::Nemfet;
using devices::NemsPolarity;
using devices::Resistor;
using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;
using spice::Edge;
using spice::MnaSystem;
using spice::NewtonStats;
using spice::RunReport;
using spice::SteppingStageRecord;
using spice::TransientOptions;
using spice::Waveform;

Waveform make_wave(const std::vector<double>& ts,
                   const std::vector<double>& vs) {
  Waveform wave({"sig"});
  linalg::Vector row(1);
  for (std::size_t k = 0; k < ts.size(); ++k) {
    row[0] = vs[k];
    wave.append(ts[k], row);
  }
  return wave;
}

// ------------------------------------------------- crossing semantics

TEST(Crossing, ExactLevelSampleCountedOnce) {
  // The second sample lands exactly on the level.  The old condition
  // ((v0-level)*(v1-level) <= 0) counted it once for the interval that
  // reaches it AND once for the interval that leaves it.
  Waveform wave = make_wave({0.0, 1.0, 2.0}, {0.0, 0.5, 1.0});
  EXPECT_NEAR(spice::cross_time(wave, "sig", 0.5, Edge::kRising, 1), 1.0,
              1e-15);
  EXPECT_FALSE(spice::has_crossing(wave, "sig", 0.5, Edge::kRising, 2));
  EXPECT_FALSE(spice::has_crossing(wave, "sig", 0.5, Edge::kEither, 2));
}

TEST(Crossing, ExactLevelPeakCountsRisingAndFallingOnce) {
  // Up through the level to an exact-level peak sample, then back down:
  // one rising crossing (at the peak sample) and one falling crossing.
  Waveform wave = make_wave({0.0, 1.0, 2.0, 3.0}, {0.0, 0.5, 0.0, -0.5});
  EXPECT_NEAR(spice::cross_time(wave, "sig", 0.5, Edge::kRising, 1), 1.0,
              1e-15);
  EXPECT_FALSE(spice::has_crossing(wave, "sig", 0.5, Edge::kRising, 2));
  // Level 0.0: reached exactly at t=2 falling, left again afterwards.
  EXPECT_NEAR(spice::cross_time(wave, "sig", 0.0, Edge::kFalling, 1, 0.5),
              2.0, 1e-15);
  EXPECT_FALSE(spice::has_crossing(wave, "sig", 0.0, Edge::kFalling, 2, 0.5));
}

TEST(Crossing, InteriorCrossingsStillFound) {
  Waveform wave = make_wave({0.0, 1.0, 2.0, 3.0}, {0.0, 1.0, 0.0, 1.0});
  EXPECT_NEAR(spice::cross_time(wave, "sig", 0.5, Edge::kRising, 1), 0.5,
              1e-15);
  EXPECT_NEAR(spice::cross_time(wave, "sig", 0.5, Edge::kFalling, 1), 1.5,
              1e-15);
  EXPECT_NEAR(spice::cross_time(wave, "sig", 0.5, Edge::kRising, 2), 2.5,
              1e-15);
  EXPECT_FALSE(spice::has_crossing(wave, "sig", 0.5, Edge::kEither, 4));
}

// ------------------------------------------- structured error payload

/// A forward-biased diode that cannot converge in one Newton iteration.
Circuit hard_diode_circuit() {
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("V1", a, ckt.gnd(), SourceWave::dc(1.0));
  spice::NodeId mid = ckt.node("mid");
  ckt.add<Resistor>("R1", a, mid, 10.0);
  ckt.add<Diode>("D1", mid, ckt.gnd());
  return ckt;
}

TEST(ConvergencePayload, NamesWorstRowsOnOpFailure) {
  Circuit ckt = hard_diode_circuit();
  MnaSystem system(ckt);
  spice::OpOptions options;
  options.newton.max_iterations = 1;
  try {
    spice::operating_point(system, options);
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    // Every rung of the homotopy ladder fails; the last one to give up
    // is source stepping.
    EXPECT_NE(std::string(e.what()).find("source stepping stalled"),
              std::string::npos)
        << e.what();
    ASSERT_TRUE(e.has_diagnostics());
    const ConvergenceDiagnostics& diag = *e.diagnostics();
    EXPECT_EQ(diag.strategy, "source");
    EXPECT_GT(diag.iterations, 0);
    ASSERT_FALSE(diag.worst_rows.empty());
    for (const auto& row : diag.worst_rows) {
      EXPECT_FALSE(row.name.empty());
    }
    // describe() renders every named row.
    const std::string text = diag.describe();
    EXPECT_NE(text.find(diag.worst_rows.front().name), std::string::npos);
  }
}

TEST(ConvergencePayload, PlainSolveNamesItsStrategy) {
  Circuit ckt = hard_diode_circuit();
  MnaSystem system(ckt);
  spice::NewtonOptions options;
  options.max_iterations = 1;
  spice::NewtonSolver solver(system, options);
  try {
    solver.solve_plain(system.initial_guess(),
                       spice::AnalysisMode::kDcOperatingPoint, /*time=*/0.0,
                       /*dt=*/0.0, options.gmin_final, /*source_factor=*/1.0);
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    ASSERT_TRUE(e.has_diagnostics());
    const ConvergenceDiagnostics& diag = *e.diagnostics();
    EXPECT_EQ(diag.strategy, "plain");
    EXPECT_EQ(diag.iterations, 1);
    ASSERT_FALSE(diag.worst_rows.empty());
    EXPECT_FALSE(diag.worst_rows.front().name.empty());
  }
}

// Out-of-tree conductance to ground whose current is NaN above 0.3 V.
class NanAboveThreshold final : public spice::Device {
 public:
  NanAboveThreshold(std::string name, spice::NodeId node)
      : Device(std::move(name)), node_(node) {}
  void stamp(spice::StampContext& ctx) const override {
    constexpr double kG = 1e-3;
    const double v = ctx.v(node_);
    ctx.add_f(node_, v > 0.3 ? std::numeric_limits<double>::quiet_NaN()
                             : kG * v);
    ctx.add_J(node_, node_, kG);
  }

 private:
  spice::NodeId node_;
};

TEST(ConvergencePayload, NanResidualIsNeverConverged) {
  // 1 V through 1 kOhm into node a: every iterate the Newton step aims at
  // (v(a) = 0.5 V) has a NaN row.  The norms must count it as failing
  // instead of folding it away, so the solve fails and names v(a).
  for (const spice::JacobianSolver solver :
       {spice::JacobianSolver::kDense, spice::JacobianSolver::kSparse}) {
    SCOPED_TRACE(solver == spice::JacobianSolver::kDense ? "dense" : "sparse");
    Circuit ckt;
    spice::NodeId in = ckt.node("in");
    spice::NodeId a = ckt.node("a");
    ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(1.0));
    ckt.add<Resistor>("R1", in, a, 1e3);
    ckt.add<NanAboveThreshold>("N1", a);
    MnaSystem system(ckt);
    spice::OpOptions options;
    options.newton.solver = solver;
    options.lint = lint::LintMode::kOff;  // N1 declares no topology
    try {
      const spice::OpResult op = spice::operating_point(system, options);
      FAIL() << "converged to v(a) = " << op.v("a");
    } catch (const ConvergenceError& e) {
      ASSERT_TRUE(e.has_diagnostics());
      const ConvergenceDiagnostics& diag = *e.diagnostics();
      ASSERT_FALSE(diag.worst_rows.empty());
      EXPECT_EQ(diag.worst_rows.front().name, "v(a)");
    }
  }
}

TEST(ConvergencePayload, SurvivesCopy) {
  ConvergenceDiagnostics diag;
  diag.strategy = "plain";
  diag.worst_rows.push_back({"v(out)", 1.0, 2.0});
  ConvergenceError original("boom", diag);
  ConvergenceError copy = original;  // exceptions must stay copyable
  ASSERT_TRUE(copy.has_diagnostics());
  EXPECT_EQ(copy.diagnostics()->worst_rows.front().name, "v(out)");
}

// -------------------------------------------------- RunReport accounting

TEST(RunReportOp, StageIterationsSumToTotal) {
  Circuit ckt = hard_diode_circuit();
  MnaSystem system(ckt);
  RunReport report;
  spice::OpOptions options;
  options.report = &report;
  spice::operating_point(system, options);

  EXPECT_EQ(report.analysis, "op");
  ASSERT_FALSE(report.stages.empty());
  EXPECT_GT(report.newton.total_iterations, 0);
  // Satellite invariant: per-stage counts accumulate into the cumulative
  // total instead of clobbering it.
  EXPECT_EQ(report.stage_iterations_total(), report.newton.total_iterations);
  EXPECT_TRUE(report.stages.back().converged);
  // Exactly one solve recorded in the histogram.
  std::uint64_t histogram_solves = 0;
  for (std::uint64_t count : report.newton_iteration_histogram) {
    histogram_solves += count;
  }
  EXPECT_EQ(histogram_solves, 1u);
  // The op phase timer ran.
  EXPECT_GE(report.metrics.get("phase.op").count, 1);
}

TEST(RunReportTransient, Fanin16CountsAndBitwiseIdenticalWaveform) {
  // The acceptance circuit: fig11's fan-in-16 hybrid dynamic OR.
  core::DynamicOrConfig config;
  config.fanin = 16;
  config.fanout = 3;
  config.hybrid = true;

  // Reference run, no sink attached.
  core::DynamicOrGate gate_a = core::build_dynamic_or(config);
  core::DynamicOrMetrics plain = core::measure_dynamic_or(gate_a);

  // Instrumented run on a fresh, identical gate.
  core::DynamicOrGate gate_b = core::build_dynamic_or(config);
  RunReport report;
  core::DynamicOrMetrics instrumented =
      core::measure_dynamic_or(gate_b, &report);

  // Bitwise identical results: the sink must not perturb the solve.
  EXPECT_EQ(plain.worst_case_delay, instrumented.worst_case_delay);
  EXPECT_EQ(plain.switching_energy, instrumented.switching_energy);
  EXPECT_EQ(plain.leakage_power, instrumented.leakage_power);

  EXPECT_EQ(report.analysis, "transient");
  EXPECT_GT(report.accepted_steps, 0u);
  EXPECT_GT(report.newton.total_iterations, 0);
  EXPECT_GT(report.stage_count(SteppingStageRecord::Kind::kPlain), 0u);
  EXPECT_GT(report.min_dt, 0.0);
  EXPECT_GE(report.max_dt, report.min_dt);
  EXPECT_EQ(report.lte_reject_count, report.lte_rejects.size());
  for (const auto& reject : report.lte_rejects) {
    EXPECT_GT(reject.dt, 0.0);
    EXPECT_FALSE(reject.worst_name.empty());
  }
  // This gate re-pivots its sparse LU in the operating point, at a
  // pull-down leg's internal node, and at the first transient step, where
  // the bias point's pivot order (the stepping shares its solver) meets
  // the transient equation of a leg NEMFET's beam velocity.  Every
  // rejection is recorded and named, and is followed by a full
  // factorization.
  EXPECT_GE(report.newton.refactor_rejections, 1);
  EXPECT_EQ(report.newton.refactor_rejections,
            static_cast<std::int64_t>(report.newton.refactor_rejects.size()));
  EXPECT_LT(report.newton.refactor_rejections, report.newton.factorizations);
  for (const auto& reject : report.newton.refactor_rejects) {
    EXPECT_GE(reject.time, 0.0);
    if (reject.time == 0.0) {
      EXPECT_EQ(reject.name.rfind("v(Xleg", 0), 0u) << reject.name;
    } else {
      EXPECT_EQ(reject.time, 1e-13);  // the first step (dt_initial)
      EXPECT_EQ(reject.name.rfind("Xleg", 0), 0u) << reject.name;
      EXPECT_EQ(reject.name.substr(reject.name.size() - 2), ".v")
          << reject.name;
    }
  }
  const auto top = report.top_refactor_rejects();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top.front().first, report.newton.refactor_rejects.front().name);
  // Histogram covers at least every accepted transient step.
  std::uint64_t histogram_solves = 0;
  for (std::uint64_t count : report.newton_iteration_histogram) {
    histogram_solves += count;
  }
  EXPECT_GE(histogram_solves, report.accepted_steps);

  // The report renders without throwing and mentions the analysis.
  EXPECT_NE(report.summary().find("transient"), std::string::npos);
  EXPECT_NE(report.summary().find("refactor_rejections=" +
                                  std::to_string(
                                      report.newton.refactor_rejections) +
                                  "[" + top.front().first + "="),
            std::string::npos);
  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"accepted_steps\""), std::string::npos);
  EXPECT_NE(json.str().find("\"refactor_reject_top\": [{\"name\": \"" +
                            top.front().first + "\""),
            std::string::npos);
}

TEST(RunReport, ResetClearsEverything) {
  RunReport report;
  report.analysis = "op";
  report.accepted_steps = 3;
  report.record_newton_iterations(4);
  report.stages.push_back({SteppingStageRecord::Kind::kPlain, 0.0, 2, true});
  report.metrics.add_count("x", 1);
  report.reset();
  EXPECT_TRUE(report.analysis.empty());
  EXPECT_EQ(report.accepted_steps, 0u);
  EXPECT_TRUE(report.stages.empty());
  EXPECT_TRUE(report.newton_iteration_histogram.empty());
  EXPECT_TRUE(report.metrics.snapshot().empty());
}

// ------------------------------------------------ transient step failure

TEST(ConvergencePayload, TransientStepFailureNamesTheStep) {
  // NEMFET pull-in driven into non-convergence: the pull-in snap needs
  // tiny steps, and a dt_min floor far above them turns the retry ladder
  // into a terminal failure.
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>(
      "Vg", g, ckt.gnd(),
      SourceWave::pulse(0.0, 1.2, 0.1_ns, 5.0_ps, 5.0_ps, 2.0_ns));
  ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN, tech::nems_90nm(),
                  1.0_um);
  MnaSystem system(ckt);

  TransientOptions options;
  options.tstop = 1.0_ns;
  options.dt_initial = 2.0_ps;
  options.dt_min = 2.0_ps;   // far above what the pull-in snap needs
  options.newton.max_iterations = 4;

  try {
    spice::transient(system, options);
    FAIL() << "expected ConvergenceError from the dt_min floor";
  } catch (const ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("dt below dt_min"),
              std::string::npos);
    ASSERT_TRUE(e.has_diagnostics());
    const ConvergenceDiagnostics& diag = *e.diagnostics();
    EXPECT_EQ(diag.strategy, "transient-step");
    EXPECT_GT(diag.time, 0.0);
    EXPECT_GT(diag.dt, 0.0);
    ASSERT_FALSE(diag.worst_rows.empty());
    EXPECT_FALSE(diag.worst_rows.front().name.empty());
  }
}

// ---------------------------------------- coincident-breakpoint regression

TEST(TransientBreakpoints, TwoIdenticalPulseSourcesRunClean) {
  // Two sources with the exact same PULSE schedule: every breakpoint is
  // duplicated.  The run must not produce zero-length steps (which
  // Waveform::append rejects as a repeated axis value).
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  spice::NodeId b = ckt.node("b");
  spice::NodeId oa = ckt.node("oa");
  spice::NodeId ob = ckt.node("ob");
  const SourceWave pulse =
      SourceWave::pulse(0.0, 1.0, 1.0_ns, 10.0_ps, 10.0_ps, 2.0_ns, 5.0_ns);
  ckt.add<VoltageSource>("V1", a, ckt.gnd(), pulse);
  ckt.add<VoltageSource>("V2", b, ckt.gnd(), pulse);
  ckt.add<Resistor>("R1", a, oa, 1e3);
  ckt.add<Capacitor>("C1", oa, ckt.gnd(), 1.0_pF);
  ckt.add<Resistor>("R2", b, ob, 1e3);
  ckt.add<Capacitor>("C2", ob, ckt.gnd(), 1.0_pF);
  MnaSystem system(ckt);

  TransientOptions options;
  options.tstop = 10.0_ns;
  Waveform wave = spice::transient(system, options);
  EXPECT_TRUE(wave.ascending_axis());
  // Both branches are identical, so they must track exactly, and the
  // pulse must be resolved (tau = 1 ns, ~2 ns of charging by t = 3 ns).
  for (double t : {0.5e-9, 2.0e-9, 3.0e-9, 5.0e-9, 9.0e-9}) {
    EXPECT_DOUBLE_EQ(wave.at("v(oa)", t), wave.at("v(ob)", t)) << "t=" << t;
  }
  EXPECT_GT(wave.at("v(oa)", 3.0e-9), 0.8);
  EXPECT_LT(wave.at("v(oa)", 5.9e-9), 0.2);  // discharged before 2nd pulse
}

TEST(TransientBreakpoints, NearCoincidentEdgesAreDeduped) {
  // Edges a few ulps apart (below the relative dedup tolerance but above
  // the old absolute 1e-18 cutoff) must collapse to one breakpoint.
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  spice::NodeId b = ckt.node("b");
  spice::NodeId oa = ckt.node("oa");
  spice::NodeId ob = ckt.node("ob");
  const double delay = 0.4;  // seconds-scale axis: ulp(0.4) ~ 5.6e-17
  ckt.add<VoltageSource>(
      "V1", a, ckt.gnd(),
      SourceWave::pulse(0.0, 1.0, delay, 1e-3, 1e-3, 0.2));
  ckt.add<VoltageSource>(
      "V2", b, ckt.gnd(),
      SourceWave::pulse(0.0, 1.0, delay + 2e-16, 1e-3, 1e-3, 0.2));
  ckt.add<Resistor>("R1", a, oa, 1e3);
  ckt.add<Capacitor>("C1", oa, ckt.gnd(), 1e-6);
  ckt.add<Resistor>("R2", b, ob, 1e3);
  ckt.add<Capacitor>("C2", ob, ckt.gnd(), 1e-6);

  MnaSystem system(ckt);
  const std::vector<double> bps = system.breakpoints(1.0);
  for (std::size_t k = 1; k < bps.size(); ++k) {
    EXPECT_GT(bps[k] - bps[k - 1], 1e-12 * bps[k])
        << "near-coincident breakpoints survived dedup at " << bps[k];
  }

  TransientOptions options;
  options.tstop = 1.0;
  options.dt_initial = 1e-5;
  options.dt_min = 1e-15;
  Waveform wave = spice::transient(system, options);
  EXPECT_TRUE(wave.ascending_axis());
  EXPECT_NEAR(wave.at("v(oa)", 0.55), 1.0, 0.05);
}

}  // namespace
}  // namespace nemsim
