// Parameterized property tests: invariants that must hold across sweeps
// of geometry, step size, and stimulus - not just at single points.
#include <gtest/gtest.h>

#include <cmath>

#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/linalg/lu.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/measure.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/rng.h"
#include "nemsim/util/units.h"

namespace nemsim {
namespace {

using namespace nemsim::literals;
using devices::Capacitor;
using devices::Mosfet;
using devices::MosPolarity;
using devices::Nemfet;
using devices::NemsPolarity;
using devices::Resistor;
using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;
using spice::MnaSystem;

// ------------------------------------------------- MOSFET geometry sweep

class MosfetWidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(MosfetWidthSweep, CurrentProportionalToWidth) {
  const double w = GetParam();
  Mosfet ref("Mref", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
             MosPolarity::kNmos, tech::nmos_90nm(), 1.0_um, 0.1_um);
  Mosfet dut("Mdut", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
             MosPolarity::kNmos, tech::nmos_90nm(), w, 0.1_um);
  for (double vgs : {0.0, 0.4, 0.8, 1.2}) {
    const double i_ref = ref.drain_current(vgs, 1.2);
    const double i_dut = dut.drain_current(vgs, 1.2);
    EXPECT_NEAR(i_dut / i_ref, w / 1.0_um, 1e-9 + 1e-6 * w / 1.0_um)
        << "vgs=" << vgs;
  }
}

TEST_P(MosfetWidthSweep, GummelSymmetryAcrossBiasGrid) {
  const double w = GetParam();
  Mosfet m("M", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           MosPolarity::kNmos, tech::nmos_90nm(), w, 0.1_um);
  for (double vg : {0.3, 0.7, 1.1}) {
    for (double vx : {0.05, 0.2, 0.5}) {
      // Terminals (g=vg, d=+vx, s=0) vs the mirror (g=vg, d=0, s=+vx).
      const double fwd = m.drain_current(vg, vx);
      const double rev = m.drain_current(vg - vx, -vx);
      EXPECT_NEAR(fwd, -rev, 1e-15 + 1e-9 * std::abs(fwd))
          << "vg=" << vg << " vx=" << vx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MosfetWidthSweep,
                         ::testing::Values(0.12e-6, 0.3e-6, 1e-6, 5e-6));

// ------------------------------------------------- NEMFET geometry sweep

class NemfetWidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(NemfetWidthSweep, PullInVoltageIndependentOfWidth) {
  // The mechanical scaling rule (k, m, c, A all ~ W) keeps Vpi fixed.
  const double w = GetParam();
  const devices::NemsParams p = tech::nems_90nm();
  Nemfet dut("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
             NemsPolarity::kN, p, w);
  // Force balance at mid-gap scales out W: check force ratio.
  const double sw = w / p.w_ref;
  Nemfet ref("Xr", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
             NemsPolarity::kN, p, p.w_ref);
  EXPECT_NEAR(dut.electrostatic_force(0.4, 1e-9) /
                  ref.electrostatic_force(0.4, 1e-9),
              sw, 1e-9 * sw);
  EXPECT_NEAR(dut.contact_force(2.1e-9) / ref.contact_force(2.1e-9), sw,
              1e-9 * sw);
}

TEST_P(NemfetWidthSweep, OnCurrentProportionalToWidth) {
  const double w = GetParam();
  const devices::NemsParams p = tech::nems_90nm();
  Nemfet dut("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
             NemsPolarity::kN, p, w);
  Nemfet ref("Xr", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
             NemsPolarity::kN, p, 1.0_um);
  const double ratio =
      dut.drain_current(1.2, 1.2, p.gap0) / ref.drain_current(1.2, 1.2, p.gap0);
  EXPECT_NEAR(ratio, w / 1.0_um, 1e-6 * ratio);
}

INSTANTIATE_TEST_SUITE_P(Widths, NemfetWidthSweep,
                         ::testing::Values(0.3e-6, 0.9e-6, 3e-6));

// ------------------------------------------------ timestep invariance

class TimestepSweep : public ::testing::TestWithParam<double> {};

TEST_P(TimestepSweep, RcResponseInvariantUnderDtMax) {
  const double dt_max = GetParam();
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>(
      "V1", in, ckt.gnd(),
      SourceWave::pulse(0.0, 1.0, 0.1_ns, 1.0_ps, 1.0_ps, 1.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, ckt.gnd(), 1.0_pF);
  MnaSystem system(ckt);
  spice::TransientOptions options;
  options.tstop = 3.0_ns;
  options.dt_max = dt_max;
  spice::Waveform wave = spice::transient(system, options);
  // v(out) at t = tau + t0 must be 1 - 1/e regardless of step ceiling.
  EXPECT_NEAR(wave.at("v(out)", 0.1_ns + 1.0_ns), 1.0 - std::exp(-1.0),
              0.01);
}

INSTANTIATE_TEST_SUITE_P(StepCeilings, TimestepSweep,
                         ::testing::Values(5e-12, 20e-12, 60e-12));

// --------------------------------------------- charge conservation sweep

class ChargeConservation : public ::testing::TestWithParam<double> {};

TEST_P(ChargeConservation, SourceChargeEqualsCapacitorCharge) {
  const double cap = GetParam();
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>(
      "V1", in, ckt.gnd(),
      SourceWave::pulse(0.0, 1.0, 0.1_ns, 10.0_ps, 10.0_ps, 1.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, ckt.gnd(), cap);
  MnaSystem system(ckt);
  spice::TransientOptions options;
  options.tstop = 20.0 * 1e3 * cap;  // ~20 tau
  spice::Waveform wave = spice::transient(system, options);
  const double q_src = -spice::integrate(wave, "i(V1)", 0.0, wave.end_time());
  const double v_final = spice::final_value(wave, "v(out)");
  EXPECT_NEAR(q_src, cap * v_final, 0.04 * cap * v_final);
}

INSTANTIATE_TEST_SUITE_P(Caps, ChargeConservation,
                         ::testing::Values(0.1e-12, 1e-12, 10e-12));

// --------------------------------------------------- LU random matrices

class LuRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomSweep, ResidualSmallForRandomSystems) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(1234 + n);
  linalg::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += 2.0 + static_cast<double>(n) * 0.1;
  }
  linalg::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-1.0, 1.0);
  linalg::Vector x = linalg::solve(a, b);
  linalg::Vector r = a * x;
  r -= b;
  EXPECT_LT(r.inf_norm(), 1e-10 * std::max(1.0, b.inf_norm()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSweep,
                         ::testing::Values(2, 5, 17, 48, 96));

// ---------------------------------------- DC sweep direction invariance

TEST(SweepDirection, CmosTransferHasNoHysteresis) {
  // A CMOS inverter's DC transfer must be identical swept up or down
  // (unlike the NEMS device); this guards against spurious state leaking
  // through the continuation mechanism.
  Circuit ckt;
  spice::NodeId vdd = ckt.node("vdd");
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
  auto& vin = ckt.add<VoltageSource>("Vin", in, ckt.gnd(),
                                     SourceWave::dc(0.0));
  ckt.add<Mosfet>("Mp", out, in, vdd, MosPolarity::kPmos, tech::pmos_90nm(),
                  0.4_um, 0.1_um);
  ckt.add<Mosfet>("Mn", out, in, ckt.gnd(), MosPolarity::kNmos,
                  tech::nmos_90nm(), 0.2_um, 0.1_um);
  MnaSystem system(ckt);
  auto up_pts = spice::linspace(0.0, 1.2, 25);
  auto down_pts = spice::linspace(1.2, 0.0, 25);
  spice::Waveform up = spice::dc_sweep(
      system, [&](double v) { vin.set_dc(v); }, up_pts);
  spice::Waveform down = spice::dc_sweep(
      system, [&](double v) { vin.set_dc(v); }, down_pts);
  auto us = up.series("v(out)");
  auto ds = down.series("v(out)");
  for (std::size_t i = 0; i < us.size(); ++i) {
    EXPECT_NEAR(us[i], ds[ds.size() - 1 - i], 1e-6);
  }
}

TEST(SweepDirection, NemsTransferShowsHysteresis) {
  // And the NEMFET must show it: mid-window current differs by decades
  // between the up and down branches.
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  auto& vg = ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(0.0));
  ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN, tech::nems_90nm(),
                  1.0_um);
  MnaSystem system(ckt);
  const devices::NemsParams p = tech::nems_90nm();
  const double v_mid = 0.40;  // inside the hysteresis window
  ASSERT_GT(v_mid, p.analytic_pull_out_voltage());
  ASSERT_LT(v_mid, p.analytic_pull_in_voltage());

  auto up_pts = spice::linspace(0.0, v_mid, 21);
  spice::Waveform up = spice::dc_sweep(
      system, [&](double v) { vg.set_dc(v); }, up_pts);
  const double i_up = std::abs(up.series("i(Vd)").back());

  auto down_pts = spice::linspace(1.2, v_mid, 21);
  spice::Waveform down = spice::dc_sweep(
      system, [&](double v) { vg.set_dc(v); }, down_pts);
  const double i_down = std::abs(down.series("i(Vd)").back());
  EXPECT_GT(i_down / i_up, 50.0);
}

// ----------------------------------------------- fanin monotonicity

class FaninSweep : public ::testing::TestWithParam<int> {};

TEST_P(FaninSweep, LeakageGrowsLinearlyWithFanin) {
  // CMOS dynamic OR pull-down leakage ~ fanin * Ioff: the premise of the
  // whole keeper-sizing argument.
  const int fanin = GetParam();
  Circuit ckt;
  spice::NodeId dyn = ckt.node("dyn");
  ckt.add<VoltageSource>("Vdyn", dyn, ckt.gnd(), SourceWave::dc(1.2));
  for (int i = 0; i < fanin; ++i) {
    const std::string idx = std::to_string(i);
    spice::NodeId in = ckt.node("in" + idx);
    ckt.add<VoltageSource>("Vin" + idx, in, ckt.gnd(), SourceWave::dc(0.0));
    ckt.add<Mosfet>("M" + idx, dyn, in, ckt.gnd(),
                    MosPolarity::kNmos, tech::nmos_90nm(), 0.3_um, 0.1_um);
  }
  MnaSystem system(ckt);
  spice::OpResult op = spice::operating_point(system);
  const double leak = -op.value("i(Vdyn)");
  const double per_input = leak / fanin;
  // Each 0.3 um input leaks ~0.3 * Ioff(per um).
  EXPECT_NEAR(per_input, 0.3 * 45e-9, 0.3 * 45e-9 * 0.2);
}

INSTANTIATE_TEST_SUITE_P(Fanins, FaninSweep, ::testing::Values(2, 8, 16));

}  // namespace
}  // namespace nemsim
