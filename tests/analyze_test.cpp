// nemsim::analyze unit tests: interval algebra, the DC interval
// fixpoint (with a soundness spot-check against the real solver),
// NEMFET operating-region verdicts, stiffness/conditioning prediction,
// dead-device detection, and the analysis gate (off / warn / strict).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/analyze.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/lint.h"
#include "nemsim/spice/op.h"
#include "nemsim/tech/cards.h"
#include "nemsim/tech/netlist_parser.h"

namespace nemsim {
namespace {

using analyze::AnalyzeReport;
using analyze::Interval;
using analyze::IntervalSet;
using lint::LintReport;
using lint::LintSeverity;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool has(const LintReport& r, const std::string& rule,
         const std::string& subject) {
  for (const auto& f : r.findings) {
    if (f.rule == rule && f.subject == subject) return true;
  }
  return false;
}

std::size_t count_rule(const LintReport& r, const std::string& rule) {
  std::size_t n = 0;
  for (const auto& f : r.findings) n += (f.rule == rule) ? 1 : 0;
  return n;
}

// ------------------------------------------------------ interval algebra

TEST(Interval, AlgebraAndContainment) {
  const Interval a{1.0, 3.0};
  const Interval b{-2.0, 0.5};
  EXPECT_EQ((a + b).lo, -1.0);
  EXPECT_EQ((a + b).hi, 3.5);
  EXPECT_EQ((a - b).lo, 0.5);
  EXPECT_EQ((a - b).hi, 5.0);
  EXPECT_TRUE(a.contains(1.0));
  EXPECT_FALSE(a.contains(0.999));
  EXPECT_TRUE(a.contains(0.999, 1e-2));  // slack widens both ends

  const Interval h = a.hull(b);
  EXPECT_EQ(h.lo, -2.0);
  EXPECT_EQ(h.hi, 3.0);
}

TEST(Interval, ScaledFlipsOnNegativeGain) {
  const Interval a{1.0, 3.0};
  const Interval s = a.scaled(-2.0);
  EXPECT_EQ(s.lo, -6.0);
  EXPECT_EQ(s.hi, -2.0);
}

TEST(Interval, ScaledByZeroOnUnboundedIsZeroNotNan) {
  // 0 * inf is NaN in IEEE arithmetic; the lattice answer is the exact
  // point 0 (a zero-gain source contributes nothing, whatever its
  // control does).
  const Interval s = Interval::top().scaled(0.0);
  EXPECT_EQ(s.lo, 0.0);
  EXPECT_EQ(s.hi, 0.0);
}

TEST(Interval, AbsFoldsTheNegativeLobe) {
  const Interval a = Interval{-2.0, 1.0}.abs();
  EXPECT_EQ(a.lo, 0.0);
  EXPECT_EQ(a.hi, 2.0);
  const Interval b = Interval{0.5, 1.5}.abs();
  EXPECT_EQ(b.lo, 0.5);
  const Interval c = Interval{-3.0, -1.0}.abs();
  EXPECT_EQ(c.lo, 1.0);
  EXPECT_EQ(c.hi, 3.0);
}

TEST(IntervalSet, GroundIsPinnedAndEmptyIntersectionIsSkipped) {
  IntervalSet s(3);
  EXPECT_EQ(s.at(spice::kGround).lo, 0.0);
  EXPECT_EQ(s.at(spice::kGround).hi, 0.0);
  EXPECT_TRUE(s.at(spice::NodeId{1}).is_top());

  EXPECT_TRUE(s.tighten(spice::NodeId{1}, Interval{0.0, 2.0}));
  // A disjoint claim would produce the empty set; the narrowing is
  // refused and the previous (sound) bound kept.
  EXPECT_FALSE(s.tighten(spice::NodeId{1}, Interval{5.0, 6.0}));
  EXPECT_EQ(s.at(spice::NodeId{1}).lo, 0.0);
  EXPECT_EQ(s.at(spice::NodeId{1}).hi, 2.0);
}

// ------------------------------------------------------ interval fixpoint

TEST(AnalyzeFixpoint, DividerIntervalsContainTheOperatingPoint) {
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\n"
      "R1 in mid 1k\n"
      "R2 mid 0 2k\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  EXPECT_TRUE(rpt.fixpoint);
  EXPECT_GT(rpt.sweeps, 0u);

  // v(in) is pinned exactly by V1; v(mid) relaxes to the hull of its
  // resistor neighbors (maximum principle: a source-free node cannot
  // leave the range its neighbors span).
  const Interval in = rpt.intervals.at(ckt.find_node("in"));
  EXPECT_EQ(in.lo, 1.0);
  EXPECT_EQ(in.hi, 1.0);
  const Interval mid = rpt.intervals.at(ckt.find_node("mid"));
  EXPECT_GE(mid.lo, 0.0);
  EXPECT_LE(mid.hi, 1.0);

  spice::MnaSystem system(ckt);
  spice::OpResult op = spice::operating_point(system);
  EXPECT_TRUE(in.contains(op.v("in"), 1e-9));
  EXPECT_TRUE(mid.contains(op.v("mid"), 1e-9));  // 2/3 V
}

TEST(AnalyzeFixpoint, VcvsPropagatesGainThroughTheRelation) {
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\n"
      "R1 in 0 1k\n"
      "E1 out 0 in 0 2.0\n"
      "R2 out 0 1k\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  const Interval out = rpt.intervals.at(ckt.find_node("out"));
  EXPECT_NEAR(out.lo, 2.0, 1e-12);
  EXPECT_NEAR(out.hi, 2.0, 1e-12);
}

TEST(AnalyzeFixpoint, InductorIsADcShort) {
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\n"
      "L1 in mid 1u\n"
      "R1 mid 0 1k\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  const Interval mid = rpt.intervals.at(ckt.find_node("mid"));
  EXPECT_NEAR(mid.lo, 1.0, 1e-12);
  EXPECT_NEAR(mid.hi, 1.0, 1e-12);
}

TEST(AnalyzeFixpoint, CurrentSourceClaimsNothing) {
  // A current-defined branch constrains no node voltage; with only a
  // resistor to anchor it the node interval must stay conservative
  // (here: the neighbor hull collapses to ground's [0,0] is NOT sound,
  // so the node keeps an unbounded side or the resistor hull — either
  // way it must contain the true 1 V drop).
  spice::Circuit ckt = tech::parse_netlist(
      "I1 0 a DC 1m\n"
      "R1 a 0 1k\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  spice::MnaSystem system(ckt);
  spice::OpResult op = spice::operating_point(system);
  EXPECT_TRUE(rpt.intervals.at(ckt.find_node("a")).contains(op.v("a"), 1e-9));
}

// ----------------------------------------------------- region verdicts

TEST(AnalyzeRegions, NemfetNeverActuates) {
  spice::Circuit ckt = tech::parse_netlist(
      "VG g 0 DC 0.2\n"
      "RD d 0 10k\n"
      "X1 d g 0 NEMFET_N W=1e-6\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  EXPECT_TRUE(has(rpt.findings, "nemfet-never-actuates", "X1"));
  ASSERT_FALSE(rpt.verdicts.empty());
  const analyze::RegionVerdict& v = rpt.verdicts.front();
  EXPECT_EQ(v.region, "nemfet-never-actuates");
  EXPECT_EQ(v.severity, LintSeverity::kWarning);
  // The verdict predicts the mechanical unknown: the beam stays on the
  // open side of the gap.  This enclosure is what the kAnalyze fuzz
  // contract checks against the solved OP.
  EXPECT_EQ(v.unknown, "X1.x");
  EXPECT_TRUE(v.predicted.contains(0.0));
  EXPECT_LT(v.predicted.hi, 2e-9);  // half of gap0
}

TEST(AnalyzeRegions, NemfetNeverReleases) {
  spice::Circuit ckt = tech::parse_netlist(
      "VG g 0 DC 0.8\n"
      "X1 0 g 0 NEMFET_N W=1e-6\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  EXPECT_TRUE(has(rpt.findings, "nemfet-never-releases", "X1"));
  EXPECT_FALSE(has(rpt.findings, "nemfet-never-actuates", "X1"));
}

TEST(AnalyzeRegions, NemfetLatchedInTheHysteresisWindowIsAHint) {
  // 0.35 V lies inside the model's hysteresis window (pull-out 0.274 V,
  // pull-in 0.453 V), where both branches are stable.
  spice::Circuit ckt = tech::parse_netlist(
      "VG g 0 DC 0.35\n"
      "X1 0 g 0 NEMFET_N W=1e-6\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  EXPECT_TRUE(has(rpt.findings, "nemfet-hysteresis-latched", "X1"));
  for (const auto& f : rpt.findings.findings) {
    if (f.rule == "nemfet-hysteresis-latched") {
      EXPECT_EQ(f.severity, LintSeverity::kHint);
    }
  }
}

TEST(AnalyzeRegions, ClosedStartBelowPullOutReleases) {
  // Below the model's pull-out voltage a beam that starts in contact
  // releases: no never-releases or latched verdict may claim otherwise,
  // and the solved beam sits on the open branch.
  const devices::NemsParams p = tech::nems_90nm();
  ASSERT_LT(0.25, p.pull_out_voltage());
  for (double vg : {0.20, 0.25}) {
    SCOPED_TRACE(vg);
    spice::Circuit ckt;
    const spice::NodeId g = ckt.node("g");
    ckt.add<devices::VoltageSource>("VG", g, ckt.gnd(),
                                    devices::SourceWave::dc(vg));
    auto& x = ckt.add<devices::Nemfet>("X1", ckt.gnd(), g, ckt.gnd(),
                                       devices::NemsPolarity::kN, p, 1e-6);
    x.set_initially_closed();
    const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
    EXPECT_FALSE(has(rpt.findings, "nemfet-never-releases", "X1"));
    EXPECT_FALSE(has(rpt.findings, "nemfet-hysteresis-latched", "X1"));
    EXPECT_TRUE(rpt.verdicts.empty());
    spice::MnaSystem system(ckt);
    spice::OpOptions options;
    options.lint = lint::LintMode::kOff;  // pull-in-above-rail is expected
    const spice::OpResult op = spice::operating_point(system, options);
    EXPECT_LT(op.x(x.unknown_x()), 0.5 * p.gap0);
  }
}

TEST(AnalyzeRegions, FullRailDriveIsSilent) {
  spice::Circuit ckt = tech::parse_netlist(
      "VDD vdd 0 DC 0.6\n"
      "VG g 0 DC 0.6\n"
      "RL vdd d 100k\n"
      "X1 d g 0 NEMFET_N W=1e-6\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  EXPECT_TRUE(rpt.verdicts.empty());
  EXPECT_TRUE(rpt.findings.clean());
}

// --------------------------------------------- stiffness / conditioning

TEST(AnalyzeMagnitudes, StiffTimeConstantSpreadWarns) {
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\n"
      "R1 in slow 1k\n"
      "C1 slow 0 1u\n"
      "R2 in fast 1k\n"
      "C2 fast 0 0.1p\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  EXPECT_EQ(count_rule(rpt.findings, "stiff-time-constants"), 1u);
  EXPECT_NEAR(rpt.tau_max, 1e-3, 1e-5);
  EXPECT_NEAR(rpt.tau_min, 1e-10, 1e-12);
}

TEST(AnalyzeMagnitudes, OneDecadeOfTauIsSilent) {
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\n"
      "R1 in a 1k\n"
      "C1 a 0 1n\n"
      "R2 in b 10k\n"
      "C2 b 0 1n\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  EXPECT_EQ(count_rule(rpt.findings, "stiff-time-constants"), 0u);
}

TEST(AnalyzeMagnitudes, ConductanceScaleSpreadWarns) {
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\n"
      "R1 in mid 0.01\n"
      "R2 mid 0 100G\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  EXPECT_EQ(count_rule(rpt.findings, "conductance-scale-spread"), 1u);
  EXPECT_NEAR(rpt.g_max, 100.0, 1e-9);
  EXPECT_NEAR(rpt.g_min, 1e-11, 1e-20);
}

// ------------------------------------------------------- reachability

TEST(AnalyzeReachability, SourceFreeIslandIsDead) {
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\n"
      "R1 in mid 1k\n"
      "R2 mid 0 2k\n"
      "R3 island 0 1k\n"
      "R4 island 0 2k\n"
      ".op\n.end\n");
  const AnalyzeReport rpt = analyze::analyze_circuit(ckt);
  EXPECT_TRUE(has(rpt.findings, "dead-subcircuit", "R3"));
  EXPECT_TRUE(has(rpt.findings, "dead-subcircuit", "R4"));
  EXPECT_FALSE(has(rpt.findings, "dead-subcircuit", "R1"));
}

// ------------------------------------------------------ analysis gating

TEST(AnalyzeGate, OffDoesNothing) {
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\nR1 in 0 1k\nR2 dead 0 1k\nR3 dead 0 1k\n.op\n.end\n");
  spice::RunReport report;
  const LintReport r =
      analyze::analyze_gate(ckt, lint::LintMode::kOff, &report);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(report.analyze_findings.empty());
}

TEST(AnalyzeGate, WarnFillsTheRunReportAndItsJson) {
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\nR1 in 0 1k\nR2 dead 0 1k\nR3 dead 0 1k\n.op\n.end\n");
  spice::RunReport report;
  const LintReport r =
      analyze::analyze_gate(ckt, lint::LintMode::kWarn, &report);
  EXPECT_EQ(r.warnings, 2u);
  ASSERT_FALSE(report.analyze_findings.empty());
  EXPECT_EQ(report.analyze_findings.front().rule, "dead-subcircuit");

  std::ostringstream os;
  report.write_json(os);
  EXPECT_NE(os.str().find("\"analyze_findings\""), std::string::npos);
  EXPECT_NE(os.str().find("dead-subcircuit"), std::string::npos);
  EXPECT_NE(report.summary().find("analyze"), std::string::npos);
}

TEST(AnalyzeGate, StrictThrowsOnWarningsUnlikeLint) {
  // Divergence from lint_gate, by design: semantic warnings mean the
  // simulation is predictably wasted work, so strict mode treats them
  // as rejections, not advisories.
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\nR1 in 0 1k\nR2 dead 0 1k\nR3 dead 0 1k\n.op\n.end\n");
  EXPECT_THROW(analyze::analyze_gate(ckt, lint::LintMode::kStrict, nullptr),
               lint::LintError);
}

TEST(AnalyzeGate, StrictPassesACleanCircuit) {
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\nR1 in mid 1k\nR2 mid 0 2k\n.op\n.end\n");
  const LintReport r =
      analyze::analyze_gate(ckt, lint::LintMode::kStrict, nullptr);
  EXPECT_TRUE(r.clean());
}

TEST(AnalyzeGate, OpOptionsWireTheGate) {
  spice::Circuit ckt = tech::parse_netlist(
      "V1 in 0 DC 1.0\nR1 in mid 1k\nR2 mid 0 2k\nR3 dead 0 1k\n"
      "R4 dead 0 1k\n.op\n.end\n");
  spice::MnaSystem system(ckt);
  spice::RunReport report;
  spice::OpOptions options;
  options.analyze = lint::LintMode::kWarn;
  options.report = &report;
  spice::OpResult op = spice::operating_point(system, options);
  EXPECT_NEAR(op.v("mid"), 2.0 / 3.0, 1e-9);
  EXPECT_FALSE(report.analyze_findings.empty());
}

}  // namespace
}  // namespace nemsim
