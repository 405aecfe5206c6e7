// Engine-level tests: netlist handling, operating points on linear and
// nonlinear circuits, DC sweeps, homotopy fallbacks, waveform measures.
#include <gtest/gtest.h>

#include <cmath>

#include "nemsim/devices/controlled.h"
#include "nemsim/devices/diode.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/measure.h"
#include "nemsim/spice/op.h"
#include "nemsim/util/error.h"

namespace nemsim {
namespace {

using devices::CurrentSource;
using devices::Diode;
using devices::Resistor;
using devices::SourceWave;
using devices::Vccs;
using devices::Vcvs;
using devices::VoltageSource;
using spice::Circuit;
using spice::MnaSystem;
using spice::OpResult;

// --------------------------------------------------------------- Circuit

TEST(Circuit, NodeCreationAndLookup) {
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  spice::NodeId a2 = ckt.node("a");
  EXPECT_EQ(a, a2);
  EXPECT_TRUE(ckt.gnd().is_ground());
  EXPECT_EQ(ckt.num_nodes(), 2u);
  EXPECT_EQ(ckt.node_name(a), "a");
  EXPECT_THROW(ckt.find_node("missing"), NetlistError);
}

TEST(Circuit, InternalNodesAreUnique) {
  Circuit ckt;
  spice::NodeId a = ckt.internal_node("x");
  spice::NodeId b = ckt.internal_node("x");
  EXPECT_NE(a, b);
}

TEST(Circuit, DuplicateDeviceNameThrows) {
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  ckt.add<Resistor>("R1", a, ckt.gnd(), 1e3);
  EXPECT_THROW(ckt.add<Resistor>("R1", a, ckt.gnd(), 2e3),
               NetlistError);
}

TEST(Circuit, FindTypedDevice) {
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  ckt.add<Resistor>("R1", a, ckt.gnd(), 1e3);
  EXPECT_EQ(ckt.find<Resistor>("R1").resistance(), 1e3);
  EXPECT_THROW(ckt.find<VoltageSource>("R1"), NetlistError);
}

// -------------------------------------------------------- Operating point

TEST(Op, ResistorDivider) {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId mid = ckt.node("mid");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(10.0));
  ckt.add<Resistor>("R1", in, mid, 1e3);
  ckt.add<Resistor>("R2", mid, ckt.gnd(), 3e3);
  MnaSystem system(ckt);
  OpResult op = spice::operating_point(system);
  EXPECT_NEAR(op.v("mid"), 7.5, 1e-9);
  // Source current: 10 V over 4 kOhm, flowing out of the + terminal.
  EXPECT_NEAR(op.value("i(V1)"), -10.0 / 4e3, 1e-12);
}

TEST(Op, CurrentSourceIntoResistor) {
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  ckt.add<CurrentSource>("I1", ckt.gnd(), a, SourceWave::dc(1e-3));
  ckt.add<Resistor>("R1", a, ckt.gnd(), 2e3);
  MnaSystem system(ckt);
  OpResult op = spice::operating_point(system);
  EXPECT_NEAR(op.v("a"), 2.0, 1e-9);
}

TEST(Op, VcvsGain) {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(0.5));
  ckt.add<Vcvs>("E1", out, ckt.gnd(), in, ckt.gnd(), 4.0);
  ckt.add<Resistor>("RL", out, ckt.gnd(), 1e3);
  MnaSystem system(ckt);
  OpResult op = spice::operating_point(system);
  EXPECT_NEAR(op.v("out"), 2.0, 1e-9);
}

TEST(Op, VccsTransconductance) {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(1.0));
  // 1 mS from gnd into out: i = gm * v(in).
  ckt.add<Vccs>("G1", ckt.gnd(), out, in, ckt.gnd(), 1e-3);
  ckt.add<Resistor>("RL", out, ckt.gnd(), 1e3);
  MnaSystem system(ckt);
  OpResult op = spice::operating_point(system);
  EXPECT_NEAR(op.v("out"), 1.0, 1e-9);
}

TEST(Op, DiodeResistorBias) {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(5.0));
  ckt.add<Resistor>("R1", in, a, 1e3);
  ckt.add<Diode>("D1", a, ckt.gnd());
  MnaSystem system(ckt);
  OpResult op = spice::operating_point(system);
  const double vd = op.v("a");
  // Forward drop in the usual silicon range and KCL-consistent current.
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.85);
  devices::Diode& d = ckt.find<Diode>("D1");
  double id = 0.0, gd = 0.0;
  d.evaluate(vd, id, gd);
  EXPECT_NEAR(id, (5.0 - vd) / 1e3, 1e-9);
}

TEST(Op, FloatingNodeGuardedByGminFinal) {
  // A node connected only through a capacitor is floating in DC; the
  // gmin_final shunt keeps the matrix solvable and parks it at 0 V.
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  spice::NodeId b = ckt.node("b");
  ckt.add<VoltageSource>("V1", a, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<devices::Capacitor>("C1", a, b, 1e-15);
  MnaSystem system(ckt);
  OpResult op = spice::operating_point(system);
  EXPECT_NEAR(op.v("b"), 0.0, 1e-6);
}

TEST(Op, SeriesDiodesNeedHomotopy) {
  // A string of diodes from a big supply is a classic hard start; the
  // ladder (gmin/source stepping) must get there.
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(30.0));
  spice::NodeId prev = in;
  for (int i = 0; i < 8; ++i) {
    const std::string idx = std::to_string(i);
    spice::NodeId next = ckt.node("n" + idx);
    ckt.add<Diode>("D" + idx, prev, next);
    prev = next;
  }
  ckt.add<Resistor>("R1", prev, ckt.gnd(), 100.0);
  MnaSystem system(ckt);
  OpResult op = spice::operating_point(system);
  const double i_r = op.v("n7") / 100.0;
  EXPECT_GT(i_r, 0.1);  // most of the 30 V lands on the resistor
}

// -------------------------------------------------------------- DC sweep

TEST(DcSweep, LinearSweepOfDivider) {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId mid = ckt.node("mid");
  auto& v1 = ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(0.0));
  ckt.add<Resistor>("R1", in, mid, 1e3);
  ckt.add<Resistor>("R2", mid, ckt.gnd(), 1e3);
  MnaSystem system(ckt);
  auto points = spice::linspace(0.0, 2.0, 5);
  spice::Waveform wave = spice::dc_sweep(
      system, [&](double v) { v1.set_dc(v); }, points);
  EXPECT_EQ(wave.num_samples(), 5u);
  EXPECT_NEAR(wave.at("v(mid)", 1.0), 0.5, 1e-9);
  EXPECT_NEAR(wave.at("v(mid)", 2.0), 1.0, 1e-9);
}

TEST(DcSweep, LinspaceEndpoints) {
  auto pts = spice::linspace(1.0, 3.0, 3);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[0], 1.0);
  EXPECT_DOUBLE_EQ(pts[1], 2.0);
  EXPECT_DOUBLE_EQ(pts[2], 3.0);
}

// ------------------------------------------------------------- Waveform

TEST(Waveform, MeasurementsOnSyntheticRamp) {
  spice::Waveform w({"sig"});
  linalg::Vector v(1);
  for (int k = 0; k <= 10; ++k) {
    v[0] = 0.1 * k;  // 0 .. 1 over t = 0 .. 10
    w.append(static_cast<double>(k), v);
  }
  EXPECT_NEAR(spice::cross_time(w, "sig", 0.55, spice::Edge::kRising), 5.5,
              1e-12);
  EXPECT_NEAR(spice::integrate(w, "sig", 0.0, 10.0), 5.0, 1e-12);
  EXPECT_NEAR(spice::average(w, "sig", 0.0, 10.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(spice::max_value(w, "sig"), 1.0);
  EXPECT_DOUBLE_EQ(spice::min_value(w, "sig"), 0.0);
  EXPECT_DOUBLE_EQ(spice::final_value(w, "sig"), 1.0);
}

TEST(Waveform, FallingEdgeAndOccurrenceSelection) {
  spice::Waveform w({"sig"});
  linalg::Vector v(1);
  const double samples[] = {0.0, 1.0, 0.0, 1.0, 0.0};
  for (int k = 0; k < 5; ++k) {
    v[0] = samples[k];
    w.append(static_cast<double>(k), v);
  }
  EXPECT_NEAR(spice::cross_time(w, "sig", 0.5, spice::Edge::kFalling, 1), 1.5,
              1e-12);
  EXPECT_NEAR(spice::cross_time(w, "sig", 0.5, spice::Edge::kRising, 2), 2.5,
              1e-12);
  EXPECT_THROW(spice::cross_time(w, "sig", 0.5, spice::Edge::kFalling, 3),
               MeasurementError);
  EXPECT_TRUE(spice::has_crossing(w, "sig", 0.5, spice::Edge::kRising, 2));
  EXPECT_FALSE(spice::has_crossing(w, "sig", 2.0));
}

TEST(Waveform, UnknownSignalThrows) {
  spice::Waveform w({"a"});
  linalg::Vector v(1);
  w.append(0.0, v);
  EXPECT_THROW(w.series("zzz"), MeasurementError);
}

// --------------------------------------------------------------- Sources

TEST(SourceWave, PulseShape) {
  // PULSE(0 1 | delay 1 | rise 1 | fall 1 | width 2)
  SourceWave p = SourceWave::pulse(0.0, 1.0, 1.0, 1.0, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(p.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.value(1.5), 0.5);   // mid-rise
  EXPECT_DOUBLE_EQ(p.value(3.0), 1.0);   // on plateau
  EXPECT_DOUBLE_EQ(p.value(4.5), 0.5);   // mid-fall
  EXPECT_DOUBLE_EQ(p.value(9.0), 0.0);   // after the pulse
}

TEST(SourceWave, PeriodicPulseRepeats) {
  SourceWave p = SourceWave::pulse(0.0, 1.0, 0.0, 1.0, 1.0, 2.0, 10.0);
  EXPECT_DOUBLE_EQ(p.value(2.0), 1.0);
  EXPECT_DOUBLE_EQ(p.value(12.0), 1.0);
  EXPECT_DOUBLE_EQ(p.value(19.0), 0.0);
}

TEST(SourceWave, PwlInterpolatesAndClamps) {
  SourceWave p = SourceWave::pwl({{1.0, 0.0}, {2.0, 4.0}});
  EXPECT_DOUBLE_EQ(p.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.value(1.5), 2.0);
  EXPECT_DOUBLE_EQ(p.value(5.0), 4.0);
}

TEST(SourceWave, BreakpointsWithinRange) {
  SourceWave p = SourceWave::pulse(0.0, 1.0, 1.0, 0.5, 0.5, 1.0);
  std::vector<double> bps;
  p.breakpoints(10.0, bps);
  // delay, end-of-rise, end-of-width, end-of-fall.
  ASSERT_EQ(bps.size(), 4u);
  EXPECT_DOUBLE_EQ(bps[0], 1.0);
  EXPECT_DOUBLE_EQ(bps[1], 1.5);
  EXPECT_DOUBLE_EQ(bps[2], 2.5);
  EXPECT_DOUBLE_EQ(bps[3], 3.0);
}

TEST(SourceWave, InvalidPulseRejected) {
  EXPECT_THROW(SourceWave::pulse(0, 1, 0, 0.0, 1, 1), InvalidArgument);
  EXPECT_THROW(SourceWave::pulse(0, 1, 0, 1, 1, 5, 2.0), InvalidArgument);
}

}  // namespace
}  // namespace nemsim
