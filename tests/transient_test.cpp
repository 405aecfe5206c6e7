// Transient integration accuracy tests against closed-form solutions.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/measure.h"
#include "nemsim/spice/transient.h"
#include "nemsim/util/units.h"

namespace nemsim {
namespace {

using namespace nemsim::literals;
using devices::Capacitor;
using devices::Inductor;
using devices::Resistor;
using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;
using spice::MnaSystem;
using spice::TransientOptions;

TEST(Transient, RcStepResponseMatchesAnalytic) {
  // 1 kOhm / 1 pF: tau = 1 ns.  Step at t = 1 ns via PULSE.
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>(
      "V1", in, ckt.gnd(),
      SourceWave::pulse(0.0, 1.0, 1.0_ns, 1.0_ps, 1.0_ps, 1.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, ckt.gnd(), 1.0_pF);
  MnaSystem system(ckt);

  TransientOptions options;
  options.tstop = 6.0_ns;
  options.dt_initial = 1.0_ps;
  spice::Waveform wave = spice::transient(system, options);

  // Compare against v(t) = 1 - exp(-(t - t0)/tau) at several points.
  const double t0 = 1.0_ns + 1.0_ps;  // end of the (fast) edge
  for (double dt_check : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double expected = 1.0 - std::exp(-dt_check / 1e-9);
    EXPECT_NEAR(wave.at("v(out)", t0 + dt_check), expected, 0.01)
        << "at offset " << dt_check;
  }
}

TEST(Transient, RcDischargeFromOp) {
  // Capacitor biased at 1 V by the OP, source drops to 0 at t = 1 ns.
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>(
      "V1", in, ckt.gnd(),
      SourceWave::pulse(1.0, 0.0, 1.0_ns, 1.0_ps, 1.0_ps, 1.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, ckt.gnd(), 1.0_pF);
  MnaSystem system(ckt);

  TransientOptions options;
  options.tstop = 5.0_ns;
  spice::Waveform wave = spice::transient(system, options);

  EXPECT_NEAR(wave.at("v(out)", 0.9e-9), 1.0, 1e-6);  // holds OP value
  const double expected = std::exp(-2.0);
  EXPECT_NEAR(wave.at("v(out)", 3.0e-9 + 1.0_ps), expected, 0.01);
}

TEST(Transient, RcCrossingTimeIs693psAtHalf) {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>(
      "V1", in, ckt.gnd(),
      SourceWave::pulse(0.0, 1.0, 0.1_ns, 1.0_ps, 1.0_ps, 1.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, ckt.gnd(), 1.0_pF);
  MnaSystem system(ckt);
  TransientOptions options;
  options.tstop = 4.0_ns;
  spice::Waveform wave = spice::transient(system, options);
  const double t_half =
      spice::cross_time(wave, "v(out)", 0.5, spice::Edge::kRising);
  EXPECT_NEAR(t_half - 0.1_ns, std::log(2.0) * 1e-9, 0.02e-9);
}

TEST(Transient, SeriesRlcRingingFrequency) {
  // Underdamped series RLC: L = 1 nH, C = 1 pF, R = 10 Ohm.
  // f_d = sqrt(1/LC - (R/2L)^2)/2pi ~ 5.03 GHz.
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId mid = ckt.node("mid");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>(
      "V1", in, ckt.gnd(),
      SourceWave::pulse(0.0, 1.0, 0.05_ns, 1.0_ps, 1.0_ps, 1.0));
  ckt.add<Resistor>("R1", in, mid, 10.0);
  ckt.add<Inductor>("L1", mid, out, 1.0_nH);
  ckt.add<Capacitor>("C1", out, ckt.gnd(), 1.0_pF);
  MnaSystem system(ckt);

  TransientOptions options;
  options.tstop = 2.0_ns;
  options.dt_max = 2.0_ps;
  spice::Waveform wave = spice::transient(system, options);

  // Measure the damped period between the first two rising crossings of
  // the final value 1.0.
  const double t1 =
      spice::cross_time(wave, "v(out)", 1.0, spice::Edge::kRising, 1);
  const double t2 =
      spice::cross_time(wave, "v(out)", 1.0, spice::Edge::kRising, 2);
  const double period = t2 - t1;
  const double l = 1e-9, c = 1e-12, r = 10.0;
  const double wd =
      std::sqrt(1.0 / (l * c) - (r / (2.0 * l)) * (r / (2.0 * l)));
  const double expected = 2.0 * std::numbers::pi / wd;
  EXPECT_NEAR(period, expected, 0.05 * expected);
  // And it must overshoot (underdamped).
  EXPECT_GT(spice::max_value(wave, "v(out)"), 1.2);
}

TEST(Transient, ChargeConservationIntoCapacitor) {
  // The integral of source current equals C * dV on the cap.
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>(
      "V1", in, ckt.gnd(),
      SourceWave::pulse(0.0, 1.0, 0.2_ns, 10.0_ps, 10.0_ps, 1.0));
  ckt.add<Resistor>("R1", in, out, 2e3);
  ckt.add<Capacitor>("C1", out, ckt.gnd(), 2.0_pF);
  MnaSystem system(ckt);
  TransientOptions options;
  options.tstop = 30.0_ns;
  spice::Waveform wave = spice::transient(system, options);

  const double q_source =
      -spice::integrate(wave, "i(V1)", 0.0, wave.end_time());
  const double dv = spice::final_value(wave, "v(out)");
  EXPECT_NEAR(q_source, 2e-12 * dv, 0.03 * 2e-12 * dv);
}

TEST(Transient, SineSourceAmplitudePreserved) {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(),
                         SourceWave::sine(0.5, 0.25, 1e9));
  ckt.add<Resistor>("R1", in, ckt.gnd(), 1e3);
  MnaSystem system(ckt);
  TransientOptions options;
  options.tstop = 2.0_ns;
  options.dt_max = 10.0_ps;
  spice::Waveform wave = spice::transient(system, options);
  EXPECT_NEAR(spice::max_value(wave, "v(in)"), 0.75, 0.01);
  EXPECT_NEAR(spice::min_value(wave, "v(in)"), 0.25, 0.01);
}

TEST(Transient, BreakpointsAreHitExactly) {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  ckt.add<VoltageSource>(
      "V1", in, ckt.gnd(),
      SourceWave::pulse(0.0, 1.0, 1.0_ns, 0.1_ns, 0.1_ns, 1.0_ns));
  ckt.add<Resistor>("R1", in, ckt.gnd(), 1e3);
  MnaSystem system(ckt);
  TransientOptions options;
  options.tstop = 5.0_ns;
  spice::Waveform wave = spice::transient(system, options);
  // The source's corner values must be sampled exactly.
  EXPECT_NEAR(wave.at("v(in)", 1.0_ns), 0.0, 1e-9);
  EXPECT_NEAR(wave.at("v(in)", 1.1_ns), 1.0, 1e-9);
  EXPECT_NEAR(wave.at("v(in)", 2.1_ns), 1.0, 1e-9);
  EXPECT_NEAR(wave.at("v(in)", 2.2_ns), 0.0, 1e-9);
}

TEST(Transient, RejectsNonPositiveStop) {
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<Resistor>("R1", in, ckt.gnd(), 1e3);
  MnaSystem system(ckt);
  TransientOptions options;
  options.tstop = 0.0;
  EXPECT_THROW(spice::transient(system, options), InvalidArgument);
}

}  // namespace
}  // namespace nemsim
