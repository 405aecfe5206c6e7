// Property test: every device's analytic Jacobian must match a central
// finite difference of its residual, at randomized bias points and in
// both DC and transient modes.  This is the single most effective guard
// against compact-model derivative bugs (which Newton would otherwise
// paper over with slow, fragile convergence).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nemsim/devices/controlled.h"
#include "nemsim/devices/diode.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/engine.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/rng.h"
#include "nemsim/util/units.h"

namespace nemsim {
namespace {

using namespace nemsim::literals;
using spice::AnalysisMode;
using spice::Circuit;
using spice::MnaSystem;

/// Checks J == d f / d x by central differences on a given system state.
void check_jacobian(MnaSystem& system, const linalg::Vector& x,
                    AnalysisMode mode, double time, double dt,
                    const std::string& label) {
  const std::size_t n = system.num_unknowns();
  linalg::Matrix jac;
  linalg::Vector f0, scale;
  system.assemble(x, jac, f0, scale, mode, time, dt, /*gmin=*/0.0,
                  /*source_factor=*/1.0);

  for (std::size_t col = 0; col < n; ++col) {
    // Step size: relative to the unknown's magnitude with a kind-aware
    // floor (displacements are ~1e-9, voltages ~1).
    const auto& info = system.unknown_info(col);
    double h = 1e-7 * std::max(std::abs(x[col]), 1.0);
    if (info.kind == spice::UnknownKind::kInternal &&
        info.name.ends_with(".x")) {
      h = 1e-13;
    }

    linalg::Vector xp = x, xm = x;
    xp[col] += h;
    xm[col] -= h;
    linalg::Matrix jp;
    linalg::Vector fp, fm, sp;
    system.assemble(xp, jp, fp, sp, mode, time, dt, 0.0, 1.0);
    system.assemble(xm, jp, fm, sp, mode, time, dt, 0.0, 1.0);

    for (std::size_t row = 0; row < n; ++row) {
      const double fd = (fp[row] - fm[row]) / (2.0 * h);
      const double an = jac(row, col);
      // Mixed tolerance: relative where the entry is large, plus the
      // roundoff floor of the finite difference itself - the residual is
      // a sum of terms of magnitude ~scale[row], so fp-fm cannot resolve
      // below a few ULPs of that, i.e. ~eps*scale/h after division.
      const double row_mag = std::max({std::abs(an), std::abs(fd), 1e-30});
      const double fd_roundoff =
          32.0 * 2.22e-16 * (scale[row] + info.abstol) / (2.0 * h);
      const double tol = 2e-3 * row_mag + fd_roundoff;
      std::string state;
      for (std::size_t i = 0; i < n; ++i) {
        state += system.unknown_info(i).name + "=" + std::to_string(x[i]) +
                 " ";
      }
      EXPECT_NEAR(an, fd, tol)
          << label << ": d f(" << system.unknown_info(row).name << ") / d "
          << info.name << " at " << state;
    }
  }
}

/// Builds random-ish iterates within physical ranges and checks both
/// analysis modes.
void check_circuit(Circuit& ckt, const std::string& label,
                   std::uint64_t seed) {
  MnaSystem system(ckt);
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    linalg::Vector x(system.num_unknowns());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const auto& info = system.unknown_info(i);
      switch (info.kind) {
        case spice::UnknownKind::kNodeVoltage:
          x[i] = rng.uniform(-0.2, 1.4);
          break;
        case spice::UnknownKind::kBranchCurrent:
          x[i] = rng.uniform(-1e-3, 1e-3);
          break;
        case spice::UnknownKind::kInternal:
          if (info.name.ends_with(".x")) {
            x[i] = rng.uniform(0.0, 1.8e-9);  // inside the gap
          } else {
            x[i] = rng.uniform(-20.0, 20.0);  // velocity
          }
          break;
      }
    }
    // DC mode is skipped for NEMFETs: their DC x-row pins the position to
    // a scanned branch solution whose derivative is only piecewise-smooth
    // (the scan/bisection introduces quantization the FD check would
    // flag spuriously), so DC is checked separately below for the others.
    check_jacobian(system, x, AnalysisMode::kTransient, 1e-10, 1e-12,
                   label + " tran#" + std::to_string(trial));
  }
}

TEST(Jacobian, PassivesAndSources) {
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  spice::NodeId b = ckt.node("b");
  spice::NodeId c = ckt.node("c");
  ckt.add<devices::VoltageSource>("V1", a, ckt.gnd(),
                                  devices::SourceWave::dc(1.0));
  ckt.add<devices::CurrentSource>("I1", b, ckt.gnd(),
                                  devices::SourceWave::dc(1e-4));
  ckt.add<devices::Resistor>("R1", a, b, 1e3);
  ckt.add<devices::Capacitor>("C1", b, c, 1.0_fF);
  ckt.add<devices::Inductor>("L1", c, ckt.gnd(), 1.0_nH);
  check_circuit(ckt, "passives", 1);
}

TEST(Jacobian, ControlledSources) {
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  spice::NodeId b = ckt.node("b");
  spice::NodeId c = ckt.node("c");
  ckt.add<devices::VoltageSource>("V1", a, ckt.gnd(),
                                  devices::SourceWave::dc(0.5));
  ckt.add<devices::Vcvs>("E1", b, ckt.gnd(), a, ckt.gnd(), 3.0);
  ckt.add<devices::Vccs>("G1", c, ckt.gnd(), b, a, 2e-3);
  ckt.add<devices::Resistor>("R1", b, c, 2e3);
  ckt.add<devices::Resistor>("R2", c, ckt.gnd(), 2e3);
  check_circuit(ckt, "controlled", 2);
}

TEST(Jacobian, Diode) {
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  ckt.add<devices::VoltageSource>("V1", a, ckt.gnd(),
                                  devices::SourceWave::dc(0.7));
  spice::NodeId b = ckt.node("b");
  ckt.add<devices::Resistor>("R1", a, b, 1e3);
  ckt.add<devices::Diode>("D1", b, ckt.gnd());
  check_circuit(ckt, "diode", 3);
}

TEST(Jacobian, MosfetBothPolarities) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  spice::NodeId s = ckt.node("s");
  ckt.add<devices::VoltageSource>("Vd", d, ckt.gnd(),
                                  devices::SourceWave::dc(1.0));
  ckt.add<devices::VoltageSource>("Vg", g, ckt.gnd(),
                                  devices::SourceWave::dc(0.6));
  ckt.add<devices::VoltageSource>("Vs", s, ckt.gnd(),
                                  devices::SourceWave::dc(0.1));
  ckt.add<devices::Mosfet>("Mn", d, g, s, devices::MosPolarity::kNmos,
                           tech::nmos_90nm(), 0.5_um, 0.1_um);
  ckt.add<devices::Mosfet>("Mp", d, g, s, devices::MosPolarity::kPmos,
                           tech::pmos_90nm(), 0.5_um, 0.1_um);
  check_circuit(ckt, "mosfet", 4);
}

TEST(Jacobian, NemfetTransient) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<devices::VoltageSource>("Vd", d, ckt.gnd(),
                                  devices::SourceWave::dc(1.0));
  ckt.add<devices::VoltageSource>("Vg", g, ckt.gnd(),
                                  devices::SourceWave::dc(0.8));
  ckt.add<devices::Nemfet>("X1", d, g, ckt.gnd(), devices::NemsPolarity::kN,
                           tech::nems_90nm(), 1.0_um);
  check_circuit(ckt, "nemfet", 5);
}

TEST(Jacobian, NemfetPmosPolarity) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  spice::NodeId s = ckt.node("s");
  ckt.add<devices::VoltageSource>("Vs", s, ckt.gnd(),
                                  devices::SourceWave::dc(1.2));
  ckt.add<devices::VoltageSource>("Vd", d, ckt.gnd(),
                                  devices::SourceWave::dc(0.3));
  ckt.add<devices::VoltageSource>("Vg", g, ckt.gnd(),
                                  devices::SourceWave::dc(0.2));
  ckt.add<devices::Nemfet>("X1", d, g, s, devices::NemsPolarity::kP,
                           tech::nems_90nm(), 1.0_um);
  check_circuit(ckt, "nemfet-p", 6);
}

TEST(Jacobian, MixedCircuitWithEverything) {
  // An inverter with a NEMS footer and reactive load: all device classes
  // stamping into one Jacobian.
  Circuit ckt;
  spice::NodeId vdd = ckt.node("vdd");
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  spice::NodeId vgnd = ckt.node("vgnd");
  spice::NodeId slp = ckt.node("slp");
  ckt.add<devices::VoltageSource>("Vdd", vdd, ckt.gnd(),
                                  devices::SourceWave::dc(1.2));
  ckt.add<devices::VoltageSource>("Vin", in, ckt.gnd(),
                                  devices::SourceWave::dc(0.5));
  ckt.add<devices::VoltageSource>("Vslp", slp, ckt.gnd(),
                                  devices::SourceWave::dc(1.2));
  ckt.add<devices::Mosfet>("Mp", out, in, vdd, devices::MosPolarity::kPmos,
                           tech::pmos_90nm(), 0.4_um, 0.1_um);
  ckt.add<devices::Mosfet>("Mn", out, in, vgnd, devices::MosPolarity::kNmos,
                           tech::nmos_90nm(), 0.2_um, 0.1_um);
  ckt.add<devices::Nemfet>("Xs", vgnd, slp, ckt.gnd(),
                           devices::NemsPolarity::kN, tech::nems_90nm(),
                           1.0_um);
  ckt.add<devices::Capacitor>("CL", out, ckt.gnd(), 2.0_fF);
  check_circuit(ckt, "mixed", 7);
}

}  // namespace
}  // namespace nemsim
