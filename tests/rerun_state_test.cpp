// Re-run statefulness regression: running the same analysis twice on one
// MnaSystem must match a fresh build bitwise, for every engine
// configuration.  Device state committed by a run (capacitor companion
// history, NEMS beam position/velocity, kernel-lane state) must never
// leak into the next run.
#include <gtest/gtest.h>

#include <vector>

#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/compile.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
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
using spice::Waveform;

/// Pulse-driven hybrid inverter: the NEMFET beam actuates and releases,
/// committing internal state every accepted step.
Circuit make_pulsed_inverter() {
  Circuit ckt;
  spice::NodeId vdd = ckt.node("vdd");
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vin", in, ckt.gnd(),
                         SourceWave::pulse(0.0, 1.2, 0.2e-9, 50e-12, 50e-12,
                                           1.5e-9, 4e-9));
  ckt.add<Mosfet>("MP", out, in, vdd, MosPolarity::kPmos, tech::pmos_90nm(),
                  0.4_um, 0.1_um);
  ckt.add<Nemfet>("XN", out, in, ckt.gnd(), NemsPolarity::kN,
                  tech::nems_90nm(), 1.0_um);
  ckt.add<Capacitor>("Cl", out, ckt.gnd(), 2e-15);
  ckt.add<Resistor>("Rl", out, ckt.gnd(), 1e9);
  return ckt;
}

/// Same inverter with a DC input, for operating-point sweeps.
Circuit make_dc_inverter() {
  Circuit ckt;
  spice::NodeId vdd = ckt.node("vdd");
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vin", in, ckt.gnd(), SourceWave::dc(0.0));
  ckt.add<Mosfet>("MP", out, in, vdd, MosPolarity::kPmos, tech::pmos_90nm(),
                  0.4_um, 0.1_um);
  ckt.add<Nemfet>("XN", out, in, ckt.gnd(), NemsPolarity::kN,
                  tech::nems_90nm(), 1.0_um);
  ckt.add<Resistor>("Rl", out, ckt.gnd(), 1e9);
  return ckt;
}

void expect_bitwise(const Waveform& a, const Waveform& b) {
  ASSERT_EQ(a.num_samples(), b.num_samples());
  ASSERT_EQ(a.num_signals(), b.num_signals());
  for (std::size_t k = 0; k < a.num_samples(); ++k) {
    ASSERT_EQ(a.times()[k], b.times()[k]) << "sample " << k;
    for (std::size_t s = 0; s < a.num_signals(); ++s) {
      ASSERT_EQ(a.sample(s, k), b.sample(s, k))
          << a.signal_names()[s] << " sample " << k;
    }
  }
}

/// Runs transient twice on one system and once on a fresh build; all
/// three waveforms must be bit-identical.
void check_transient_rerun(const spice::TransientOptions& o) {
  Circuit reused_ckt = make_pulsed_inverter();
  spice::MnaSystem reused(reused_ckt);
  const Waveform first = spice::transient(reused, o);
  const Waveform second = spice::transient(reused, o);

  Circuit fresh_ckt = make_pulsed_inverter();
  spice::MnaSystem fresh(fresh_ckt);
  const Waveform expect = spice::transient(fresh, o);

  expect_bitwise(expect, first);
  expect_bitwise(expect, second);
}

// TransientPlain (dense: the inverter is below the sparse threshold) and
// TransientForcedSparse run the kernel lanes on both Jacobian sinks: the
// plan (lanes, scatter maps, per-bucket counters, CSR pattern) lives
// on the MnaSystem and survives the first run, and must not leak into
// the second.
TEST(RerunState, TransientPlain) {
  spice::TransientOptions o;
  o.tstop = 2e-9;
  check_transient_rerun(o);
}

TEST(RerunState, TransientForcedSparse) {
  spice::TransientOptions o;
  o.tstop = 2e-9;
  o.newton.solver = spice::JacobianSolver::kSparse;
  check_transient_rerun(o);
}

TEST(RerunState, OpThenTransientMatchesFreshTransient) {
  // An operating point solved first must not change the transient that
  // follows on the same system.
  Circuit reused_ckt = make_pulsed_inverter();
  spice::MnaSystem reused(reused_ckt);
  (void)spice::operating_point(reused);
  spice::TransientOptions o;
  o.tstop = 2e-9;
  const Waveform after_op = spice::transient(reused, o);

  Circuit fresh_ckt = make_pulsed_inverter();
  spice::MnaSystem fresh(fresh_ckt);
  expect_bitwise(spice::transient(fresh, o), after_op);
}

TEST(RerunState, DcSweepRerunsBitwise) {
  Circuit reused_ckt = make_dc_inverter();
  spice::MnaSystem reused(reused_ckt);
  std::vector<double> points;
  for (int i = 0; i <= 12; ++i) points.push_back(1.2 * i / 12.0);
  auto& vin = reused_ckt.find<VoltageSource>("Vin");
  auto sweep = [&vin](double v) { vin.set_dc(v); };
  const Waveform first = spice::dc_sweep(reused, sweep, points);
  const Waveform second = spice::dc_sweep(reused, sweep, points);

  Circuit fresh_ckt = make_dc_inverter();
  spice::MnaSystem fresh(fresh_ckt);
  auto& fresh_vin = fresh_ckt.find<VoltageSource>("Vin");
  const Waveform expect = spice::dc_sweep(
      fresh, [&fresh_vin](double v) { fresh_vin.set_dc(v); }, points);

  expect_bitwise(expect, first);
  expect_bitwise(expect, second);
}

TEST(RerunState, CompiledInterleavedAnalysesStayClean) {
  // Mixing analyses on one CompiledCircuit: each run owns its state, so
  // any interleaving reproduces the fresh-compile result bitwise.
  spice::TransientOptions o;
  o.tstop = 2e-9;
  spice::CompiledCircuit compiled = spice::compile(make_pulsed_inverter());
  (void)compiled.run_op();
  const Waveform tran_a = compiled.run_transient(o);
  (void)compiled.run_op();
  const Waveform tran_b = compiled.run_transient(o);

  spice::CompiledCircuit fresh = spice::compile(make_pulsed_inverter());
  const Waveform expect = fresh.run_transient(o);
  expect_bitwise(expect, tran_a);
  expect_bitwise(expect, tran_b);
}

}  // namespace
}  // namespace nemsim
