// Engine-internals breadth tests: Newton options/statistics and homotopy
// paths, MNA unknown bookkeeping, nodesets, transient step counters and
// option validation, CSV export, and a ring oscillator as a many-cycle
// transient stress test.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>

#include "nemsim/core/gates.h"
#include "nemsim/devices/diode.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/measure.h"
#include "nemsim/spice/newton.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/units.h"

namespace nemsim {
namespace {

using namespace nemsim::literals;
using devices::Capacitor;
using devices::Diode;
using devices::Mosfet;
using devices::MosPolarity;
using devices::Resistor;
using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;
using spice::MnaSystem;

// ------------------------------------------------------------ MnaSystem

TEST(Mna, UnknownNamingAndLookup) {
  Circuit ckt;
  spice::NodeId a = ckt.node("alpha");
  ckt.add<VoltageSource>("Vs", a, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<devices::Inductor>("L1", a, ckt.gnd(), 1.0_nH);
  MnaSystem system(ckt);
  EXPECT_EQ(system.num_unknowns(), 3u);  // v(alpha), i(Vs), i(L1)
  EXPECT_TRUE(system.has_unknown("v(alpha)"));
  EXPECT_TRUE(system.has_unknown("i(Vs)"));
  EXPECT_TRUE(system.has_unknown("i(L1)"));
  EXPECT_FALSE(system.has_unknown("v(beta)"));
  EXPECT_THROW(system.unknown_by_name("v(beta)"), InvalidArgument);
  EXPECT_FALSE(system.unknown_of(ckt.gnd()).valid());
}

TEST(Mna, NodesetSeedsInitialGuess) {
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("Vs", a, ckt.gnd(), SourceWave::dc(1.0));
  MnaSystem system(ckt);
  system.set_nodeset(a, 0.7);
  linalg::Vector x0 = system.initial_guess();
  EXPECT_DOUBLE_EQ(x0[system.unknown_of(a).index], 0.7);
  system.clear_nodesets();
  EXPECT_DOUBLE_EQ(system.initial_guess()[system.unknown_of(a).index], 0.0);
  EXPECT_THROW(system.set_nodeset(ckt.gnd(), 1.0), InvalidArgument);
}

TEST(Mna, BreakpointsMergedAndSorted) {
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  spice::NodeId b = ckt.node("b");
  ckt.add<VoltageSource>(
      "V1", a, ckt.gnd(),
      SourceWave::pulse(0.0, 1.0, 2e-9, 1e-10, 1e-10, 1e-9));
  ckt.add<VoltageSource>("V2", b, ckt.gnd(),
                         SourceWave::pwl({{1e-9, 0.0}, {5e-9, 1.0}}));
  ckt.add<Resistor>("R1", a, b, 1e3);
  MnaSystem system(ckt);
  auto bps = system.breakpoints(10e-9);
  ASSERT_GE(bps.size(), 5u);
  for (std::size_t i = 1; i < bps.size(); ++i) {
    EXPECT_GT(bps[i], bps[i - 1]);
  }
  EXPECT_DOUBLE_EQ(bps.front(), 1e-9);  // PWL point comes first
  // Outside (0, tstop] is filtered.
  auto early = system.breakpoints(0.5e-9);
  EXPECT_TRUE(early.empty());
}

// --------------------------------------------------------------- Newton

TEST(Newton, StatsCountIterations) {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(3.0));
  ckt.add<Resistor>("R1", in, a, 1e3);
  ckt.add<Diode>("D1", a, ckt.gnd());
  MnaSystem system(ckt);
  spice::NewtonSolver solver(system, spice::NewtonOptions{});
  spice::NewtonStats stats;
  linalg::Vector x = solver.solve(system.initial_guess(),
                                  spice::AnalysisMode::kDcOperatingPoint,
                                  0.0, 0.0, &stats);
  EXPECT_GT(stats.total_iterations, 1);
  EXPECT_LT(stats.total_iterations, 100);
  EXPECT_GT(x[system.unknown_of(a).index], 0.4);
}

TEST(Newton, TinyIterationBudgetFailsCleanly) {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(5.0));
  ckt.add<Resistor>("R1", in, a, 1e3);
  ckt.add<Diode>("D1", a, ckt.gnd());
  MnaSystem system(ckt);
  spice::NewtonOptions options;
  options.max_iterations = 1;
  spice::NewtonSolver solver(system, options);
  EXPECT_THROW(solver.solve(system.initial_guess(),
                            spice::AnalysisMode::kDcOperatingPoint, 0.0,
                            0.0),
               ConvergenceError);
}

// ------------------------------------------------------------ transient

/// RC low-pass driven by a single rising edge.
Circuit make_rc_step() {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>(
      "V1", in, ckt.gnd(),
      SourceWave::pulse(0.0, 1.0, 0.1_ns, 10.0_ps, 10.0_ps, 1.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, ckt.gnd(), 1.0_pF);
  return ckt;
}

TEST(TransientReport, CountsAcceptedSteps) {
  Circuit ckt = make_rc_step();
  MnaSystem system(ckt);
  spice::RunReport report;
  spice::TransientOptions options;
  options.tstop = 5.0_ns;
  options.report = &report;
  spice::Waveform wave = spice::transient(system, options);
  EXPECT_EQ(report.accepted_steps + 1, wave.num_samples());  // +1 for t=0
  EXPECT_GT(report.max_dt, report.min_dt);
  EXPECT_EQ(report.newton_failures, 0u);
}

TEST(TransientReport, TighterLteMeansMoreSteps) {
  auto run_with = [](double lte) {
    Circuit ckt;
    spice::NodeId in = ckt.node("in");
    spice::NodeId out = ckt.node("out");
    ckt.add<VoltageSource>("V1", in, ckt.gnd(),
                           SourceWave::sine(0.5, 0.4, 1e9));
    ckt.add<Resistor>("R1", in, out, 1e3);
    ckt.add<Capacitor>("C1", out, ckt.gnd(), 0.2_pF);
    MnaSystem system(ckt);
    spice::RunReport report;
    spice::TransientOptions options;
    options.tstop = 3.0_ns;
    options.lte_reltol = lte;
    options.report = &report;
    spice::transient(system, options);
    return report.accepted_steps;
  };
  EXPECT_GT(run_with(2e-4), run_with(2e-2));
}

TEST(TransientValidation, RejectsStepControlThatCannotTerminate) {
  // A dt_min of zero, below zero or NaN never trips the retry floor, so a
  // step that keeps failing would retry without bound; a zero LTE target
  // or a NaN reject factor leaves the step control undefined.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const spice::TransientOptions defaults;
  struct Case {
    const char* label;
    double dt_min, lte_reltol, reject_factor;
  };
  const Case cases[] = {
      {"dt_min = 0", 0.0, defaults.lte_reltol, defaults.reject_factor},
      {"dt_min = -1", -1.0, defaults.lte_reltol, defaults.reject_factor},
      {"dt_min = NaN", nan, defaults.lte_reltol, defaults.reject_factor},
      {"lte_reltol = 0", defaults.dt_min, 0.0, defaults.reject_factor},
      {"reject_factor = NaN", defaults.dt_min, defaults.lte_reltol, nan},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    Circuit ckt = make_rc_step();
    MnaSystem system(ckt);
    spice::TransientOptions options;
    options.tstop = 1.0_ns;
    options.dt_min = c.dt_min;
    options.lte_reltol = c.lte_reltol;
    options.reject_factor = c.reject_factor;
    EXPECT_THROW(spice::transient(system, options), InvalidArgument);
  }
}

// -------------------------------------------------------------- CSV dump

TEST(WaveformCsv, SelectedColumnsRoundTrip) {
  spice::Waveform w({"a", "b"});
  linalg::Vector v(2);
  v[0] = 1.5;
  v[1] = -2.0;
  w.append(0.0, v);
  v[0] = 2.5;
  v[1] = -3.0;
  w.append(1e-9, v);
  std::ostringstream os;
  w.write_csv(os, {"b"});
  EXPECT_EQ(os.str(), "t,b\n0,-2\n1e-09,-3\n");
  std::ostringstream all;
  w.write_csv(all);
  EXPECT_NE(all.str().find("t,a,b"), std::string::npos);
  EXPECT_THROW(w.write_csv(os, {"zzz"}), MeasurementError);
}

// -------------------------------------------------------- ring oscillator

TEST(RingOscillator, OscillatesAtPlausibleFrequency) {
  // 5-stage CMOS ring: f = 1/(2 * N * t_stage).  A many-cycle transient
  // exercises step control, breakpoint-free adaptation and periodicity.
  Circuit ckt;
  spice::NodeId vdd = ckt.node("vdd");
  ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
  const int stages = 5;
  std::vector<spice::NodeId> nodes;
  for (int i = 0; i < stages; ++i) {
    nodes.push_back(ckt.node("n" + std::to_string(i)));
  }
  for (int i = 0; i < stages; ++i) {
    core::add_inverter(ckt, "INV" + std::to_string(i), nodes[i],
                       nodes[(i + 1) % stages], vdd);
  }
  // Kick-start: tiny charge injection on one node.
  ckt.add<devices::CurrentSource>(
      "Ikick", ckt.gnd(), nodes[0],
      SourceWave::pulse(0.0, 50e-6, 10e-12, 5e-12, 5e-12, 50e-12));

  MnaSystem system(ckt);
  spice::TransientOptions options;
  options.tstop = 3.0_ns;
  options.dt_max = 5.0_ps;
  spice::Waveform wave = spice::transient(system, options);

  // Count rising crossings of 0.6 V on one node in the last 2 ns.
  int crossings = 0;
  while (spice::has_crossing(wave, "v(n0)", 0.6, spice::Edge::kRising,
                             crossings + 1, 1.0_ns)) {
    ++crossings;
  }
  ASSERT_GE(crossings, 3) << "ring did not oscillate";
  const double t_first = spice::cross_time(wave, "v(n0)", 0.6,
                                           spice::Edge::kRising, 1, 1.0_ns);
  const double t_last = spice::cross_time(
      wave, "v(n0)", 0.6, spice::Edge::kRising, crossings, 1.0_ns);
  const double period = (t_last - t_first) / (crossings - 1);
  const double freq = 1.0 / period;
  // 90 nm unloaded inverters: a few GHz for 5 stages.
  EXPECT_GT(freq, 1e9);
  EXPECT_LT(freq, 80e9);
  // Rail-to-rail swing.
  EXPECT_GT(spice::max_value(wave, "v(n0)", 1.0_ns), 1.1);
  EXPECT_LT(spice::min_value(wave, "v(n0)", 1.0_ns), 0.1);
}

}  // namespace
}  // namespace nemsim
