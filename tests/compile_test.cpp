// Compile/execute split: ParamBank mechanics, CompiledCircuit semantics,
// overlay-vs-setter equivalence, and the compile-once Monte-Carlo loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/compile.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/units.h"
#include "nemsim/variation/montecarlo.h"

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
using spice::CompiledCircuit;
using spice::CompileOptions;
using spice::ParamPatch;
using spice::Waveform;

/// Hybrid NEMS-CMOS inverter driving a load cap: nonlinear, has
/// committed state (companions + beam branch memory), pulse breakpoints.
Circuit make_hybrid_inverter() {
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

TEST(ParamBank, BindCreatesColumnsAndSettersWriteThrough) {
  Circuit ckt = make_hybrid_inverter();
  spice::ParamBank& bank = ckt.param_bank();
  const std::size_t mos_col = bank.find_column("mos.vth_shift");
  ASSERT_NE(mos_col, spice::ParamBank::npos);
  auto& mp = ckt.find<Mosfet>("MP");
  ASSERT_TRUE(mp.vth_shift_slot().valid());
  mp.set_vth_shift(0.017);
  EXPECT_EQ(bank.value(mp.vth_shift_slot()), 0.017);
  bank.set_value(mp.vth_shift_slot(), -0.005);
  EXPECT_EQ(mp.vth_shift(), -0.005);
}

TEST(ParamBank, SnapshotRestoreRoundTrips) {
  Circuit ckt = make_hybrid_inverter();
  spice::ParamBank& bank = ckt.param_bank();
  const spice::ParamBank::Snapshot snap = bank.snapshot();
  auto& xn = ckt.find<Nemfet>("XN");
  xn.set_vth_shift(0.03);
  ckt.find<Resistor>("Rl").set_resistance(2e9);
  bank.restore(snap);
  EXPECT_EQ(xn.vth_shift(), 0.0);
  EXPECT_EQ(ckt.find<Resistor>("Rl").resistance(), 1e9);
}

TEST(ParamBank, FreeStandingDeviceUsesLocalFallback) {
  // A device never added to a Circuit has no bank; its BankedParam
  // handles fall back to local storage.
  Resistor r("R1", spice::NodeId{1}, spice::NodeId{0}, 50.0);
  EXPECT_FALSE(r.resistance_slot().valid());
  r.set_resistance(75.0);
  EXPECT_EQ(r.resistance(), 75.0);
}

TEST(Compile, FreezesStructureButNotParameters) {
  CompiledCircuit compiled = spice::compile(make_hybrid_inverter());
  EXPECT_TRUE(compiled.circuit().structure_frozen());
  EXPECT_THROW(compiled.circuit().add<Resistor>("Rnew", spice::NodeId{1},
                                                spice::NodeId{0}, 1e3),
               NetlistError);
  EXPECT_THROW(compiled.circuit().node("fresh_node"), NetlistError);
  // Existing-node lookup and parameter writes stay open.
  EXPECT_NO_THROW(compiled.circuit().node("out"));
  EXPECT_NO_THROW(compiled.circuit().find<Resistor>("Rl").set_resistance(2e9));
}

TEST(Compile, MemoizesLintFindings) {
  Circuit ckt = make_hybrid_inverter();
  // 2 TOhm is past lint's physically-sensible resistor ceiling.
  ckt.find<Resistor>("Rl").set_resistance(2e12);
  CompiledCircuit compiled = spice::compile(std::move(ckt));
  EXPECT_GT(compiled.lint_findings().warnings, 0u);
}

TEST(Compile, OpMatchesLegacyBitwise) {
  Circuit legacy = make_hybrid_inverter();
  spice::MnaSystem system(legacy);
  const spice::OpResult expect = spice::operating_point(system);

  CompiledCircuit compiled = spice::compile(make_hybrid_inverter());
  const spice::OpResult first = compiled.run_op();
  const spice::OpResult second = compiled.run_op();
  ASSERT_EQ(expect.raw().size(), first.raw().size());
  for (std::size_t i = 0; i < expect.raw().size(); ++i) {
    EXPECT_EQ(expect.raw()[i], first.raw()[i]) << "unknown " << i;
    EXPECT_EQ(first.raw()[i], second.raw()[i]) << "unknown " << i;
  }
}

TEST(Compile, TransientMatchesLegacyAndRerunsBitwise) {
  Circuit legacy = make_hybrid_inverter();
  spice::MnaSystem system(legacy);
  spice::TransientOptions o;
  o.tstop = 2e-9;
  const Waveform expect = spice::transient(system, o);

  CompiledCircuit compiled = spice::compile(make_hybrid_inverter());
  const Waveform first = compiled.run_transient(o);
  // The second run must not inherit any committed state from the first.
  const Waveform second = compiled.run_transient(o);
  expect_bitwise(expect, first);
  expect_bitwise(first, second);
}

TEST(Compile, TransientLandsOnAnEdgeMovedBetweenRuns) {
  // A source waveform replaced between two compiled runs moves the
  // breakpoints: the second run must land on the new edge, exactly as a
  // legacy run on a circuit built with that waveform does.
  spice::TransientOptions o;
  o.tstop = 2e-9;
  CompiledCircuit compiled = spice::compile(make_hybrid_inverter());
  (void)compiled.run_transient(o);
  const double edge = 0.73e-9;
  const SourceWave moved =
      SourceWave::pulse(0.0, 1.2, edge, 50e-12, 50e-12, 0.5e-9);
  compiled.circuit().find<VoltageSource>("Vin").set_wave(moved);
  const Waveform second = compiled.run_transient(o);
  for (const double t : {edge, edge + 50e-12}) {
    EXPECT_TRUE(std::any_of(second.times().begin(), second.times().end(),
                            [&](double s) {
                              return std::abs(s - t) <= 1e-12 * t;
                            }))
        << "no sample on the edge at " << t;
  }

  Circuit legacy = make_hybrid_inverter();
  legacy.find<VoltageSource>("Vin").set_wave(moved);
  spice::MnaSystem system(legacy);
  expect_bitwise(spice::transient(system, o), second);
}

TEST(Compile, OverlayMatchesRebuiltCircuitBitwise) {
  CompiledCircuit compiled = spice::compile(make_hybrid_inverter());
  ParamPatch patch;
  patch.push_back(
      {compiled.circuit().find<Mosfet>("MP").vth_shift_slot(), 0.012});
  patch.push_back(
      {compiled.circuit().find<Nemfet>("XN").vth_shift_slot(), -0.008});
  patch.push_back(
      {compiled.circuit().find<Resistor>("Rl").resistance_slot(), 5e8});
  compiled.set_overlay(patch);
  spice::TransientOptions o;
  o.tstop = 2e-9;
  const Waveform overlaid = compiled.run_transient(o);

  Circuit rebuilt = make_hybrid_inverter();
  rebuilt.find<Mosfet>("MP").set_vth_shift(0.012);
  rebuilt.find<Nemfet>("XN").set_vth_shift(-0.008);
  rebuilt.find<Resistor>("Rl").set_resistance(5e8);
  spice::MnaSystem system(rebuilt);
  const Waveform expect = spice::transient(system, o);
  expect_bitwise(expect, overlaid);

  // clear_overlay returns to the compile-time base.
  compiled.clear_overlay();
  EXPECT_EQ(compiled.circuit().find<Mosfet>("MP").vth_shift(), 0.0);
  EXPECT_EQ(compiled.circuit().find<Resistor>("Rl").resistance(), 1e9);
}

TEST(Compile, OverlayResyncsDerivedState) {
  // Capacitance lives mirrored inside the companion; an overlay write
  // must reach the stamps via on_params_changed.
  CompiledCircuit compiled = spice::compile(make_hybrid_inverter());
  auto& cl = compiled.circuit().find<Capacitor>("Cl");
  ParamPatch patch{{cl.capacitance_slot(), 4e-15}};
  compiled.set_overlay(patch);
  EXPECT_EQ(cl.capacitance(), 4e-15);
  compiled.clear_overlay();
  EXPECT_EQ(cl.capacitance(), 2e-15);
}

/// Minimal bank-backed device whose resync calls are countable: proves
/// the dirty-column filter in Circuit::notify_params_changed skips
/// devices none of whose columns changed.
class ResyncProbe final : public spice::Device {
 public:
  ResyncProbe(std::string name, spice::NodeId p, spice::NodeId n,
              const char* column)
      : Device(std::move(name)), p_(p), n_(n), column_(column) {}

  void bind_params(spice::ParamBank& bank) override {
    value_.bind(bank, column_, name());
  }
  void on_params_changed() override { ++resyncs; }
  void stamp(spice::StampContext& ctx) const override {
    const double g = 1.0 / 1e6;
    const double i = g * (ctx.v(p_) - ctx.v(n_));
    ctx.add_f(p_, i);
    ctx.add_f(n_, -i);
    ctx.add_J(p_, p_, g);
    ctx.add_J(p_, n_, -g);
    ctx.add_J(n_, p_, -g);
    ctx.add_J(n_, n_, g);
  }
  bool is_linear() const override { return true; }

  spice::ParamSlot slot() const { return value_.slot(); }
  int resyncs = 0;

 private:
  spice::NodeId p_, n_;
  const char* column_;
  spice::BankedParam value_{1.0};
};

TEST(ParamBank, NotifyResyncsOnlyDevicesOnDirtyColumns) {
  Circuit ckt;
  spice::NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("V1", a, ckt.gnd(), SourceWave::dc(1.0));
  auto& touched = ckt.add<ResyncProbe>("P1", a, ckt.gnd(), "probe.alpha");
  auto& untouched = ckt.add<ResyncProbe>("P2", a, ckt.gnd(), "probe.beta");

  // A write that changes a value dirties only its own column.
  ckt.param_bank().set_value(touched.slot(), 2.5);
  ckt.notify_params_changed();
  EXPECT_EQ(touched.resyncs, 1);
  EXPECT_EQ(untouched.resyncs, 0);

  // A write of the value already stored is not a change at all.
  ckt.param_bank().set_value(touched.slot(), 2.5);
  ckt.notify_params_changed();
  EXPECT_EQ(touched.resyncs, 1);
  EXPECT_EQ(untouched.resyncs, 0);

  // restore() marks exactly the columns whose values it moves back.
  const spice::ParamBank::Snapshot snap = ckt.param_bank().snapshot();
  ckt.param_bank().set_value(untouched.slot(), -3.0);
  ckt.param_bank().restore(snap);
  ckt.notify_params_changed();
  EXPECT_EQ(touched.resyncs, 1);
  EXPECT_EQ(untouched.resyncs, 1);
}

TEST(MonteCarloBatch, MatchesSequentialDriverBitwise) {
  variation::MonteCarloOptions options;
  options.trials = 8;
  options.sigma_fraction = 0.03;

  Circuit mutable_ckt = make_hybrid_inverter();
  const variation::MonteCarloResult expect = variation::monte_carlo(
      mutable_ckt,
      [](Circuit& c) {
        spice::MnaSystem system(c);
        spice::OpOptions o;
        o.lint = lint::LintMode::kOff;
        return spice::operating_point(system, o).v("out");
      },
      options);

  // Compile once, then install each trial's draw as a bank overlay: the
  // batched Monte-Carlo that mc_batch_butterfly and perfbench compose.
  CompiledCircuit compiled = spice::compile(make_hybrid_inverter());
  const Rng root(options.seed);
  std::vector<double> got;
  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    Rng stream = root.child(trial);
    compiled.set_overlay(variation::vth_variation_patch(
        compiled.circuit(), options.sigma_fraction, stream));
    got.push_back(compiled.run_op().v("out"));
  }
  compiled.clear_overlay();

  ASSERT_EQ(expect.failures, 0u);
  ASSERT_EQ(expect.samples.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(expect.samples[i], got[i]) << "trial " << i;
  }
  EXPECT_EQ(compiled.circuit().find<Mosfet>("MP").vth_shift(), 0.0);
}

TEST(MonteCarloBatch, PatchMatchesApplyDrawForDraw) {
  Circuit ckt = make_hybrid_inverter();
  Rng rng_a(7);
  const ParamPatch patch = variation::vth_variation_patch(ckt, 0.06, rng_a);
  Rng rng_b(7);
  variation::apply_vth_variation(ckt, 0.06, rng_b);
  ASSERT_EQ(patch.size(), 2u);  // one MOSFET + one NEMFET
  EXPECT_EQ(ckt.param_bank().value(patch[0].slot), patch[0].value);
  EXPECT_EQ(ckt.param_bank().value(patch[1].slot), patch[1].value);
}

}  // namespace
}  // namespace nemsim
