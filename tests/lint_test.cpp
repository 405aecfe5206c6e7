// nemsim::lint unit tests: one positive and one negative case per rule
// class, plus the analysis-gate contract (off / warn / strict).
#include <gtest/gtest.h>

#include <string>

#include "nemsim/devices/controlled.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/lint.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"

namespace nemsim {
namespace {

using devices::Capacitor;
using devices::CurrentSource;
using devices::Inductor;
using devices::Mosfet;
using devices::MosPolarity;
using devices::Nemfet;
using devices::NemsPolarity;
using devices::Resistor;
using devices::SourceWave;
using devices::Vcvs;
using devices::VoltageSource;
using lint::LintReport;
using lint::LintSeverity;

// Does the report contain a finding of `rule` whose message mentions
// `needle`?  Rules are asserted through this so tests pin both the rule
// id and the presence of the offending device/node *name* in the text.
bool has(const LintReport& r, const std::string& rule,
         const std::string& needle) {
  for (const auto& f : r.findings) {
    if (f.rule == rule && f.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::size_t count_rule(const LintReport& r, const std::string& rule) {
  std::size_t n = 0;
  for (const auto& f : r.findings) n += (f.rule == rule) ? 1 : 0;
  return n;
}

// V - R divider with a load capacitor: structurally impeccable.
void build_divider(spice::Circuit& ckt) {
  spice::NodeId in = ckt.node("in");
  spice::NodeId mid = ckt.node("mid");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<Resistor>("R1", in, mid, 1e3);
  ckt.add<Resistor>("R2", mid, ckt.gnd(), 3e3);
  ckt.add<Capacitor>("C1", mid, ckt.gnd(), 10e-15);
}

// ------------------------------------------------------------ clean case

TEST(Lint, CleanCircuitHasNoFindings) {
  spice::Circuit ckt;
  build_divider(ckt);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_TRUE(r.findings.empty()) << r.summary();
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.warnings, 0u);
  EXPECT_EQ(r.hints, 0u);
}

// --------------------------------------------------------- floating-node

TEST(Lint, FloatingIslandIsAnError) {
  spice::Circuit ckt;
  build_divider(ckt);
  // R3 connects two nodes that touch nothing else: a two-node island.
  ckt.add<Resistor>("R3", ckt.node("a"), ckt.node("b"), 1e3);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_TRUE(r.has_errors());
  EXPECT_TRUE(has(r, "floating-node", "'a'")) << r.summary();
  EXPECT_TRUE(has(r, "floating-node", "'b'")) << r.summary();
  // The well-connected nodes must NOT be flagged.
  EXPECT_FALSE(has(r, "floating-node", "'mid'"));
  EXPECT_FALSE(has(r, "floating-node", "'in'"));
}

TEST(Lint, SensingOnlyControlNodesFloat) {
  spice::Circuit ckt;
  build_divider(ckt);
  // VCVS control terminals sense but do not stamp; with nothing else
  // attached the control nodes are structurally undetermined.
  ckt.add<Vcvs>("E1", ckt.node("e"), ckt.gnd(), ckt.node("cp"),
                ckt.node("cn"), 2.0);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_TRUE(has(r, "floating-node", "'cp'")) << r.summary();
  EXPECT_TRUE(has(r, "floating-node", "'cn'")) << r.summary();
  EXPECT_TRUE(has(r, "floating-node", "sensing"));
}

// ---------------------------------------------------------- voltage-loop

TEST(Lint, ParallelSourcesFormVoltageLoop) {
  spice::Circuit ckt;
  spice::NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("V1", a, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<VoltageSource>("V2", a, ckt.gnd(), SourceWave::dc(2.0));
  ckt.add<Resistor>("R1", a, ckt.gnd(), 1e3);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_TRUE(r.has_errors());
  // The loop is attributed to the branch that closed it.
  EXPECT_TRUE(has(r, "voltage-loop", "'V2'")) << r.summary();
  // The conflicting values are named explicitly as well.
  EXPECT_TRUE(has(r, "parallel-voltage-sources", "'V1'")) << r.summary();
  EXPECT_TRUE(has(r, "parallel-voltage-sources", "'V2'"));
  // And the rank check independently sees the singularity.
  EXPECT_GE(count_rule(r, "structural-rank"), 1u);
}

TEST(Lint, InductorClosesDcVoltageLoop) {
  spice::Circuit ckt;
  spice::NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("V1", a, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<Inductor>("L1", a, ckt.gnd(), 1e-9);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_TRUE(has(r, "voltage-loop", "'L1'")) << r.summary();
}

TEST(Lint, SeriesSourcesAreNotALoop) {
  spice::Circuit ckt;
  spice::NodeId a = ckt.node("a");
  spice::NodeId b = ckt.node("b");
  ckt.add<VoltageSource>("V1", a, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<VoltageSource>("V2", b, a, SourceWave::dc(1.0));
  ckt.add<Resistor>("R1", b, ckt.gnd(), 1e3);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_EQ(count_rule(r, "voltage-loop"), 0u) << r.summary();
  EXPECT_EQ(count_rule(r, "parallel-voltage-sources"), 0u);
  EXPECT_TRUE(r.clean());
}

// -------------------------------------------------------- current-cutset

TEST(Lint, CurrentSourceIntoDeadEndIsACutset) {
  spice::Circuit ckt;
  build_divider(ckt);
  ckt.add<CurrentSource>("I1", ckt.node("x"), ckt.gnd(),
                         SourceWave::dc(1e-6));
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_TRUE(r.has_errors());
  EXPECT_TRUE(has(r, "current-cutset", "'x'")) << r.summary();
}

TEST(Lint, CurrentSourceWithShuntIsFine) {
  spice::Circuit ckt;
  spice::NodeId x = ckt.node("x");
  ckt.add<CurrentSource>("I1", x, ckt.gnd(), SourceWave::dc(1e-6));
  ckt.add<Resistor>("R1", x, ckt.gnd(), 1e3);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_EQ(count_rule(r, "current-cutset"), 0u) << r.summary();
  EXPECT_TRUE(r.clean());
}

// -------------------------------------------------- capacitive-only-node

TEST(Lint, CapacitiveOnlyNodeWarns) {
  spice::Circuit ckt;
  build_divider(ckt);
  ckt.add<Capacitor>("C2", ckt.node("x"), ckt.node("in"), 1e-15);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_TRUE(has(r, "capacitive-only-node", "'x'")) << r.summary();
  // It is a warning (gmin rescues the DC point), not an error.
  EXPECT_EQ(r.errors, 0u);
}

TEST(Lint, CapacitorWithBleedResistorIsFine) {
  spice::Circuit ckt;
  build_divider(ckt);
  spice::NodeId x = ckt.node("x");
  ckt.add<Capacitor>("C2", x, ckt.node("in"), 1e-15);
  ckt.add<Resistor>("R3", x, ckt.gnd(), 1e6);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_EQ(count_rule(r, "capacitive-only-node"), 0u) << r.summary();
  EXPECT_TRUE(r.clean());
}

// --------------------------------------------------------- dangling-node

TEST(Lint, SingleTerminalNodeDangles) {
  spice::Circuit ckt;
  build_divider(ckt);
  // x reaches ground through R3-"in", so it does not float; it merely
  // has exactly one terminal on it.
  ckt.add<Resistor>("R3", ckt.node("in"), ckt.node("x"), 1e3);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_TRUE(has(r, "dangling-node", "'x'")) << r.summary();
  EXPECT_EQ(r.errors, 0u);
}

TEST(Lint, TwoTerminalNodesDoNotDangle) {
  spice::Circuit ckt;
  build_divider(ckt);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_EQ(count_rule(r, "dangling-node"), 0u) << r.summary();
}

// ------------------------------------------------- nonphysical-parameter

TEST(Lint, NonphysicalParametersWarn) {
  spice::Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<Resistor>("R1", in, out, 1e13);          // 10 TOhm
  ckt.add<Capacitor>("C1", out, ckt.gnd(), 2.0);   // 2 farads on-chip
  ckt.add<Resistor>("R2", out, ckt.gnd(), 1e3);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_GE(count_rule(r, "nonphysical-parameter"), 2u) << r.summary();
  // The finding is anchored to the offending device.
  bool r1 = false, c1 = false;
  for (const auto& f : r.findings) {
    if (f.rule != "nonphysical-parameter") continue;
    r1 = r1 || f.subject == "R1";
    c1 = c1 || f.subject == "C1";
  }
  EXPECT_TRUE(r1) << r.summary();
  EXPECT_TRUE(c1) << r.summary();
  EXPECT_EQ(r.errors, 0u);  // warnings, not errors
}

TEST(Lint, OrdinaryParametersDoNotWarn) {
  spice::Circuit ckt;
  build_divider(ckt);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_EQ(count_rule(r, "nonphysical-parameter"), 0u) << r.summary();
}

// ---------------------------------------------------- pull-in-above-rail

TEST(Lint, NemfetThatCannotActuateWarns) {
  spice::Circuit ckt;
  spice::NodeId vdd = ckt.node("vdd");
  spice::NodeId g = ckt.node("g");
  spice::NodeId d = ckt.node("d");
  ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<Resistor>("Rload", vdd, d, 1e4);
  // A 400x stiffer beam: pull-in scales as sqrt(k), so Vpi lands near
  // 9 V against a 1.2 V rail (still below the 100 kN/m absurdity bar).
  devices::NemsParams stiff = tech::nems_90nm();
  stiff.spring_k *= 400.0;
  ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN, stiff,
                  1e-6);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_TRUE(has(r, "pull-in-above-rail", "1.2")) << r.summary();
  EXPECT_EQ(count_rule(r, "nonphysical-parameter"), 0u) << r.summary();
}

TEST(Lint, CalibratedNemfetDoesNotWarn) {
  spice::Circuit ckt;
  spice::NodeId vdd = ckt.node("vdd");
  spice::NodeId g = ckt.node("g");
  spice::NodeId d = ckt.node("d");
  ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<Resistor>("Rload", vdd, d, 1e4);
  ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN,
                  tech::nems_90nm(), 1e-6);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_EQ(count_rule(r, "pull-in-above-rail"), 0u) << r.summary();
  EXPECT_TRUE(r.clean());
}

// ------------------------------------------------------- structural-rank

TEST(Lint, RankDeficitNamesBranchUnknowns) {
  spice::Circuit ckt;
  spice::NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("V1", a, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<VoltageSource>("V2", a, ckt.gnd(), SourceWave::dc(2.0));
  ckt.add<Resistor>("R1", a, ckt.gnd(), 1e3);
  LintReport r = lint::lint_circuit(ckt);
  // Two identical voltage rows cannot both be matched: rank n-1 of n,
  // attributed to a source branch current (nodes are covered).
  EXPECT_TRUE(has(r, "structural-rank", "i(")) << r.summary();
}

TEST(Lint, FullRankCircuitPasses) {
  spice::Circuit ckt;
  build_divider(ckt);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_EQ(count_rule(r, "structural-rank"), 0u);
}

// ------------------------------------------------------- name-convention

TEST(Lint, MisleadingDeviceNameIsAHint) {
  spice::Circuit ckt;
  build_divider(ckt);
  // An "AL"-style name (SRAM access-transistor idiom): first letter
  // does not match the element letter, so it cannot round-trip through
  // the parser's first-letter dispatch.
  ckt.add<Resistor>("XR", ckt.node("in"), ckt.gnd(), 1e4);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_TRUE(has(r, "name-convention", "'XR'")) << r.summary();
  EXPECT_EQ(r.hints, 1u);
  // Hints do not spoil cleanliness: they are portability advice.
  EXPECT_TRUE(r.clean());
}

TEST(Lint, ConventionalNamesGetNoHint) {
  spice::Circuit ckt;
  build_divider(ckt);
  LintReport r = lint::lint_circuit(ckt);
  EXPECT_EQ(r.hints, 0u) << r.summary();
}

// -------------------------------------------------- report shape / caps

TEST(Lint, FindingsAreSortedBySeverityAndCapped) {
  spice::Circuit ckt;
  build_divider(ckt);
  ckt.add<Resistor>("XR", ckt.node("in"), ckt.gnd(), 1e4);  // hint
  ckt.add<Capacitor>("C9", ckt.node("mid"), ckt.gnd(), 2.0);  // warning
  ckt.add<Resistor>("R9", ckt.node("p"), ckt.node("q"), 1e3);  // errors
  LintReport r = lint::lint_circuit(ckt);
  ASSERT_GE(r.findings.size(), 3u);
  EXPECT_EQ(r.findings.front().severity, LintSeverity::kError);
  EXPECT_EQ(r.findings.back().severity, LintSeverity::kHint);
  // to_string carries severity, rule and subject.
  const std::string line = r.findings.front().to_string();
  EXPECT_NE(line.find("error["), std::string::npos) << line;

  EXPECT_EQ(r.summary().find("shown"), std::string::npos) << r.summary();

  // The cap truncates the findings list but not the counters: one
  // name-convention hint per misnamed resistor, more than the cap keeps.
  const std::size_t misnamed = LintReport::kMaxFindings + 10;
  for (std::size_t i = 0; i < misnamed; ++i) {
    const std::string index = std::to_string(i);
    ckt.add<Resistor>("XR" + index, ckt.node("in"), ckt.gnd(), 1e4);
  }
  LintReport rc = lint::lint_circuit(ckt);
  EXPECT_EQ(rc.findings.size(), LintReport::kMaxFindings);
  EXPECT_EQ(rc.errors, r.errors);
  EXPECT_EQ(rc.warnings, r.warnings);
  EXPECT_EQ(rc.hints, r.hints + misnamed);
  EXPECT_EQ(rc.findings.front().severity, LintSeverity::kError);
  EXPECT_NE(rc.summary().find("shown"), std::string::npos);
}

// ------------------------------------------------------ analysis gating

TEST(LintGate, StrictRejectsBeforeAnyNewtonWork) {
  spice::Circuit ckt;
  spice::NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("V1", a, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<VoltageSource>("V2", a, ckt.gnd(), SourceWave::dc(2.0));
  ckt.add<Resistor>("R1", a, ckt.gnd(), 1e3);
  spice::MnaSystem system(ckt);
  spice::RunReport report;
  spice::OpOptions options;
  options.lint = lint::LintMode::kStrict;
  options.report = &report;
  try {
    spice::operating_point(system, options);
    FAIL() << "expected LintError";
  } catch (const lint::LintError& e) {
    EXPECT_TRUE(e.report().has_errors());
    EXPECT_NE(std::string(e.what()).find("voltage-loop"), std::string::npos)
        << e.what();
  }
  // Rejected before the homotopy ladder: no stage was ever recorded,
  // but the findings made it into the run report.
  EXPECT_TRUE(report.stages.empty());
  EXPECT_FALSE(report.lint_findings.empty());
}

TEST(LintGate, StrictAllowsWarningsThrough) {
  spice::Circuit ckt;
  build_divider(ckt);
  ckt.add<Capacitor>("C9", ckt.node("mid"), ckt.gnd(), 2.0);  // warning only
  spice::MnaSystem system(ckt);
  spice::OpOptions options;
  options.lint = lint::LintMode::kStrict;
  spice::OpResult op = spice::operating_point(system, options);
  EXPECT_NEAR(op.v("mid"), 0.9, 1e-9);
}

TEST(LintGate, WarnEmbedsFindingsAndSolves) {
  spice::Circuit ckt;
  build_divider(ckt);
  ckt.add<Capacitor>("C9", ckt.node("mid"), ckt.gnd(), 2.0);
  spice::MnaSystem system(ckt);
  spice::RunReport report;
  spice::OpOptions options;  // default mode is kWarn
  options.report = &report;
  spice::OpResult op = spice::operating_point(system, options);
  EXPECT_NEAR(op.v("mid"), 0.9, 1e-9);
  ASSERT_FALSE(report.lint_findings.empty());
  EXPECT_EQ(report.lint_findings.front().rule, "nonphysical-parameter");
  // The report summary now mentions the lint section.
  EXPECT_NE(report.summary().find("lint["), std::string::npos)
      << report.summary();
}

TEST(LintGate, OffIsBitwiseIdenticalToWarn) {
  // Same circuit, same transient, lint off vs on: every sample of every
  // signal must agree to the last bit (the analyzer never touches
  // device or system state).
  auto build = [](spice::Circuit& ckt) {
    spice::NodeId vdd = ckt.node("vdd");
    spice::NodeId in = ckt.node("in");
    spice::NodeId out = ckt.node("out");
    ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
    ckt.add<VoltageSource>(
        "Vin", in, ckt.gnd(),
        SourceWave::pulse(0.0, 1.2, 0.2e-9, 20e-12, 20e-12, 1e-9));
    ckt.add<Mosfet>("Mp", out, in, vdd, MosPolarity::kPmos,
                    tech::pmos_90nm(), 0.4e-6, 1e-7);
    ckt.add<Mosfet>("Mn", out, in, ckt.gnd(), MosPolarity::kNmos,
                    tech::nmos_90nm(), 0.2e-6, 1e-7);
    ckt.add<Capacitor>("Cl", out, ckt.gnd(), 5e-15);
  };
  spice::TransientOptions tran;
  tran.tstop = 1e-9;

  spice::Circuit c1;
  build(c1);
  spice::MnaSystem s1(c1);
  tran.lint = lint::LintMode::kOff;
  spice::Waveform w_off = spice::transient(s1, tran);

  spice::Circuit c2;
  build(c2);
  spice::MnaSystem s2(c2);
  tran.lint = lint::LintMode::kWarn;
  spice::Waveform w_warn = spice::transient(s2, tran);

  ASSERT_EQ(w_off.num_samples(), w_warn.num_samples());
  ASSERT_EQ(w_off.num_signals(), w_warn.num_signals());
  for (std::size_t k = 0; k < w_off.num_samples(); ++k) {
    ASSERT_EQ(w_off.times()[k], w_warn.times()[k]);
    for (std::size_t s = 0; s < w_off.num_signals(); ++s) {
      ASSERT_EQ(w_off.sample(s, k), w_warn.sample(s, k))
          << w_off.signal_names()[s] << " @ sample " << k;
    }
  }
}

}  // namespace
}  // namespace nemsim
