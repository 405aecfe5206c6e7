// MOSFET compact-model tests: calibration against Table 1, smoothness,
// symmetry, and a full CMOS inverter in the simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <random>

#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/measure.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/tech/characterize.h"
#include "nemsim/util/units.h"
#include "twin_key_check.h"

namespace nemsim {
namespace {

using namespace nemsim::literals;
using devices::MosParams;
using devices::Mosfet;
using devices::MosPolarity;
using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;
using spice::MnaSystem;

Mosfet make_nmos(double w = 1.0_um) {
  return Mosfet("M", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
                MosPolarity::kNmos, tech::nmos_90nm(), w, 0.1_um);
}

// ----------------------------------------------------- model properties

TEST(MosfetModel, Table1IonCalibration) {
  Mosfet m = make_nmos();
  const double ion = m.drain_current(1.2, 1.2);
  EXPECT_NEAR(ion, 1110e-6, 0.10 * 1110e-6);  // 1110 uA/um +- 10 %
}

TEST(MosfetModel, Table1IoffCalibration) {
  Mosfet m = make_nmos();
  const double ioff = m.drain_current(0.0, 1.2);
  EXPECT_NEAR(ioff, 50e-9, 0.25 * 50e-9);  // 50 nA/um +- 25 %
}

TEST(MosfetModel, CurrentScalesWithWidth) {
  Mosfet m1 = make_nmos(1.0_um);
  Mosfet m2 = make_nmos(2.0_um);
  EXPECT_NEAR(m2.drain_current(1.2, 1.2) / m1.drain_current(1.2, 1.2), 2.0,
              1e-9);
}

TEST(MosfetModel, MonotonicInVgs) {
  Mosfet m = make_nmos();
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 1.2; vgs += 0.05) {
    const double id = m.drain_current(vgs, 1.2);
    EXPECT_GT(id, prev);
    prev = id;
  }
}

TEST(MosfetModel, MonotonicInVds) {
  Mosfet m = make_nmos();
  double prev = -1.0;
  for (double vds = 0.0; vds <= 1.2; vds += 0.05) {
    const double id = m.drain_current(1.2, vds);
    EXPECT_GT(id, prev);
    prev = id;
  }
}

TEST(MosfetModel, ZeroVdsZeroCurrent) {
  Mosfet m = make_nmos();
  EXPECT_NEAR(m.drain_current(1.2, 0.0), 0.0, 1e-12);
}

TEST(MosfetModel, SymmetricThroughOrigin) {
  // Gummel symmetry: mirroring the terminal voltages (g=1.0, d=0.1, s=0)
  // to (g=1.0, d=0, s=0.1) must exactly negate the current.  In the
  // source-referenced API the mirror of (vgs=1.0, vds=0.1) is
  // (vgs=0.9, vds=-0.1).
  Mosfet m = make_nmos();
  const double fwd = m.drain_current(1.0, 0.1);
  const double rev = m.drain_current(0.9, -0.1);
  EXPECT_NEAR(fwd, -rev, 1e-12 + 1e-9 * fwd);
  // ... and tiny vds continuity through the swap point.
  const double eps = m.drain_current(1.0, 1e-9);
  EXPECT_NEAR(eps, 0.0, 1e-9);
}

TEST(MosfetModel, VthShiftReducesCurrent) {
  Mosfet m = make_nmos();
  const double nominal = m.drain_current(0.3, 1.2);
  m.set_vth_shift(0.05);
  EXPECT_LT(m.drain_current(0.3, 1.2), nominal);
  m.set_vth_shift(-0.05);
  EXPECT_GT(m.drain_current(0.3, 1.2), nominal);
}

TEST(MosfetModel, SubthresholdSlopeFactor) {
  // Deep in weak inversion Id ~ exp(Vgs/(n vt)): the slope matches the
  // card's n.  (Near Vth the EKV interpolation deviates by design, so
  // measure well below threshold.)
  Mosfet m = make_nmos();
  const double i1 = m.drain_current(0.00, 1.2);
  const double i2 = m.drain_current(0.05, 1.2);
  const double n_measured =
      0.05 / (std::log(i2 / i1) * phys::thermal_voltage(300.0));
  EXPECT_NEAR(n_measured, tech::nmos_90nm().n, 0.15);
}

// ------------------------------------------------- characterization runs

TEST(MosfetCharacterize, NmosMeetsTable1ViaSimulator) {
  tech::DeviceIV iv = tech::characterize_mosfet(
      tech::nmos_90nm(), MosPolarity::kNmos, 1.0_um, 0.1_um, 1.2);
  EXPECT_NEAR(iv.ion, 1110e-6, 0.10 * 1110e-6);
  EXPECT_NEAR(iv.ioff, 50e-9, 0.25 * 50e-9);
  // Swing: n * vt * ln(10) ~ 83 mV/dec, and never below 60.
  EXPECT_GT(iv.swing_mv_dec, 60.0);
  EXPECT_LT(iv.swing_mv_dec, 100.0);
}

TEST(MosfetCharacterize, PmosConductsWithNegativeBias) {
  tech::DeviceIV iv = tech::characterize_mosfet(
      tech::pmos_90nm(), MosPolarity::kPmos, 1.0_um, 0.1_um, 1.2);
  EXPECT_GT(iv.ion, 300e-6);   // holes: roughly half the NMOS drive
  EXPECT_LT(iv.ion, 800e-6);
  EXPECT_LT(iv.ioff, 60e-9);
}

TEST(MosfetCharacterize, HighVtCutsLeakageByOrderOfMagnitude) {
  tech::DeviceIV nom = tech::characterize_mosfet(
      tech::nmos_90nm(), MosPolarity::kNmos, 1.0_um, 0.1_um, 1.2);
  tech::DeviceIV hvt = tech::characterize_mosfet(
      tech::nmos_90nm_hvt(), MosPolarity::kNmos, 1.0_um, 0.1_um, 1.2);
  EXPECT_LT(hvt.ioff, nom.ioff / 10.0);
  EXPECT_LT(hvt.ion, nom.ion);  // and it is slower
}

// --------------------------------------------------------- inverter runs

struct InverterFixture {
  Circuit ckt;
  MnaSystem* system = nullptr;

  InverterFixture(double wp, double wn) {
    spice::NodeId vdd = ckt.node("vdd");
    spice::NodeId in = ckt.node("in");
    spice::NodeId out = ckt.node("out");
    ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
    ckt.add<VoltageSource>("Vin", in, ckt.gnd(), SourceWave::dc(0.0));
    ckt.add<Mosfet>("Mp", out, in, vdd, MosPolarity::kPmos, tech::pmos_90nm(),
                    wp, 0.1_um);
    ckt.add<Mosfet>("Mn", out, in, ckt.gnd(), MosPolarity::kNmos,
                    tech::nmos_90nm(), wn, 0.1_um);
  }
};

TEST(Inverter, RailToRailTransfer) {
  InverterFixture f(0.4_um, 0.2_um);
  MnaSystem system(f.ckt);
  auto& vin = f.ckt.find<VoltageSource>("Vin");
  auto points = spice::linspace(0.0, 1.2, 61);
  spice::Waveform vtc = spice::dc_sweep(
      system, [&](double v) { vin.set_dc(v); }, points);
  EXPECT_GT(vtc.at("v(out)", 0.0), 1.19);   // output high at input low
  EXPECT_LT(vtc.at("v(out)", 1.2), 0.01);   // output low at input high
  // Switching threshold in the middle third of the supply.
  const double vm = spice::cross_time(vtc, "v(out)", 0.6, spice::Edge::kFalling);
  EXPECT_GT(vm, 0.4);
  EXPECT_LT(vm, 0.8);
}

TEST(Inverter, TransientPropagationDelayReasonable) {
  InverterFixture f(0.4_um, 0.2_um);
  // Drive with a pulse and load with a second inverter's worth of cap.
  auto& vin = f.ckt.find<VoltageSource>("Vin");
  vin.set_wave(SourceWave::pulse(0.0, 1.2, 0.2_ns, 20.0_ps, 20.0_ps, 1.0_ns));
  f.ckt.add<devices::Capacitor>("CL", f.ckt.find_node("out"), f.ckt.gnd(),
                                2.0_fF);
  MnaSystem system(f.ckt);
  spice::TransientOptions options;
  options.tstop = 2.5_ns;
  spice::Waveform wave = spice::transient(system, options);

  const double tphl = spice::propagation_delay(
      wave, "v(in)", 0.6, spice::Edge::kRising, "v(out)", 0.6,
      spice::Edge::kFalling);
  EXPECT_GT(tphl, 1.0_ps);
  EXPECT_LT(tphl, 100.0_ps);  // 90 nm inverter: tens of ps at this load
  // Output must eventually swing back high after the input falls.
  EXPECT_GT(spice::final_value(wave, "v(out)"), 1.1);
}

TEST(Inverter, LeakagePowerWhenIdle) {
  InverterFixture f(0.4_um, 0.2_um);
  MnaSystem system(f.ckt);
  spice::OpResult op = spice::operating_point(system);
  // Input low: NMOS leaks; static current of the order of Ioff * W.
  const double i_leak = std::abs(op.value("i(Vdd)"));
  EXPECT_GT(i_leak, 1e-10);
  EXPECT_LT(i_leak, 1e-6);
}

// --------------------------------------------- twin key (DESIGN.md §7k)

TEST(MosfetTwinKey, EqualKeysMeanBitwiseEqualEvaluations) {
  // Equal complete inputs must mean bitwise-equal evaluations through
  // every public mutator, for both polarities; the comparisons also see
  // pairs whose keys differ in one member only, so a key that left out a
  // cap state, the Vth shift or the role iterate fails here.
  for (MosPolarity polarity : {MosPolarity::kNmos, MosPolarity::kPmos}) {
    SCOPED_TRACE(polarity == MosPolarity::kNmos ? "nmos" : "pmos");
    const MosParams card = polarity == MosPolarity::kNmos ? tech::nmos_90nm()
                                                          : tech::pmos_90nm();
    Circuit ckt;
    auto& a = ckt.add<Mosfet>("MA", ckt.node("da"), ckt.node("ga"),
                              ckt.node("sa"), polarity, card, 1.0_um, 0.1_um);
    auto& b = ckt.add<Mosfet>("MB", ckt.node("db"), ckt.node("gb"),
                              ckt.node("sb"), polarity, card, 1.0_um, 0.1_um);
    MnaSystem system(ckt);
    const spice::KernelLayout layout(system);
    auto draw = [](std::size_t, std::mt19937_64& rng) {
      return std::uniform_real_distribution<double>(-0.3, 1.4)(rng);
    };
    auto pick = [](std::initializer_list<double> values, std::mt19937_64& rng) {
      return values.begin()[std::uniform_int_distribution<std::size_t>(
          0, values.size() - 1)(rng)];
    };
    twin_check::TwinKeyProperty<Mosfet, 3> property(
        system, a, b, a.role_unknowns(layout), b.role_unknowns(layout), draw,
        /*seed=*/polarity == MosPolarity::kNmos ? 1 : 2);
    property.add_op("set_width", [&](Mosfet& d, std::mt19937_64& rng) {
      d.set_width(pick({0.3_um, 1.0_um}, rng));
    });
    property.add_op("set_vth_shift", [&](Mosfet& d, std::mt19937_64& rng) {
      d.set_vth_shift(pick({-0.02, 0.0, 0.03}, rng));
    });
    property.add_op("bank overlay", [&](Mosfet& d, std::mt19937_64& rng) {
      ckt.param_bank().set_value(d.width_slot(), pick({0.3_um, 1.0_um}, rng));
      ckt.param_bank().set_value(d.vth_shift_slot(), pick({0.0, 0.03}, rng));
      ckt.notify_params_changed();
    });
    property.add_op("notify_discontinuity",
                    [](Mosfet& d, std::mt19937_64&) { d.notify_discontinuity(); });
    property.add_op("reset_state",
                    [](Mosfet& d, std::mt19937_64&) { d.reset_state(); });
    property.run(600);
    EXPECT_GT(property.equal_keys(), 150);
    EXPECT_GT(property.distinct(), 1000);
  }
}

}  // namespace
}  // namespace nemsim
