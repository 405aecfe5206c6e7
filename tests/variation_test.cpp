// Monte-Carlo / process-variation layer tests.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "nemsim/core/sram.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/op.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/parallel.h"
#include "nemsim/util/units.h"
#include "nemsim/variation/montecarlo.h"

namespace nemsim {
namespace {

using namespace nemsim::literals;
using devices::Mosfet;
using devices::MosPolarity;
using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;

Circuit make_two_transistor_circuit() {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(0.6));
  ckt.add<Mosfet>("M1", d, g, ckt.gnd(), MosPolarity::kNmos,
                  tech::nmos_90nm(), 1.0_um, 0.1_um);
  ckt.add<Mosfet>("M2", d, g, ckt.gnd(), MosPolarity::kNmos,
                  tech::nmos_90nm(), 1.0_um, 0.1_um);
  return ckt;
}

TEST(Variation, AppliesIndependentShifts) {
  Circuit ckt = make_two_transistor_circuit();
  Rng rng(1);
  variation::apply_vth_variation(ckt, 0.06, rng);
  const double s1 = ckt.find<Mosfet>("M1").vth_shift();
  const double s2 = ckt.find<Mosfet>("M2").vth_shift();
  EXPECT_NE(s1, 0.0);
  EXPECT_NE(s1, s2);
}

TEST(Variation, ClearRestoresNominal) {
  Circuit ckt = make_two_transistor_circuit();
  Rng rng(1);
  variation::apply_vth_variation(ckt, 0.06, rng);
  variation::clear_vth_variation(ckt);
  EXPECT_DOUBLE_EQ(ckt.find<Mosfet>("M1").vth_shift(), 0.0);
  EXPECT_DOUBLE_EQ(ckt.find<Mosfet>("M2").vth_shift(), 0.0);
}

TEST(Variation, ZeroSigmaMeansZeroShift) {
  Circuit ckt = make_two_transistor_circuit();
  Rng rng(1);
  variation::apply_vth_variation(ckt, 0.0, rng);
  EXPECT_DOUBLE_EQ(ckt.find<Mosfet>("M1").vth_shift(), 0.0);
}

TEST(MonteCarlo, DeterministicAcrossRuns) {
  Circuit ckt = make_two_transistor_circuit();
  variation::MonteCarloOptions options;
  options.trials = 8;
  options.seed = 42;
  auto metric = [](Circuit& c) {
    spice::MnaSystem system(c);
    spice::OpResult op = spice::operating_point(system);
    return -op.value("i(Vd)");
  };
  auto r1 = variation::monte_carlo(ckt, metric, options);
  auto r2 = variation::monte_carlo(ckt, metric, options);
  ASSERT_EQ(r1.samples.size(), r2.samples.size());
  for (std::size_t i = 0; i < r1.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.samples[i], r2.samples[i]);
  }
}

TEST(MonteCarlo, SpreadGrowsWithSigma) {
  Circuit ckt = make_two_transistor_circuit();
  auto metric = [](Circuit& c) {
    spice::MnaSystem system(c);
    spice::OpResult op = spice::operating_point(system);
    return -op.value("i(Vd)");
  };
  variation::MonteCarloOptions small;
  small.trials = 40;
  small.sigma_fraction = 0.03;
  variation::MonteCarloOptions large = small;
  large.sigma_fraction = 0.09;
  auto rs = variation::monte_carlo(ckt, metric, small);
  auto rl = variation::monte_carlo(ckt, metric, large);
  EXPECT_GT(rl.stats.stddev(), rs.stats.stddev());
  // Relative spread at Vgs = 0.6 V should be clearly visible.
  EXPECT_GT(rl.stats.stddev() / rl.stats.mean(), 0.01);
}

TEST(MonteCarlo, ShiftsClearedAfterRun) {
  Circuit ckt = make_two_transistor_circuit();
  variation::MonteCarloOptions options;
  options.trials = 3;
  auto metric = [](Circuit&) { return 1.0; };
  variation::monte_carlo(ckt, metric, options);
  EXPECT_DOUBLE_EQ(ckt.find<Mosfet>("M1").vth_shift(), 0.0);
}

TEST(MonteCarlo, FailuresToleratedAndCounted) {
  Circuit ckt = make_two_transistor_circuit();
  variation::MonteCarloOptions options;
  options.trials = 6;
  int call = 0;
  auto metric = [&](Circuit&) -> double {
    if (++call % 2 == 0) throw ConvergenceError("synthetic failure");
    return static_cast<double>(call);
  };
  auto r = variation::monte_carlo(ckt, metric, options);
  EXPECT_EQ(r.failures, 3u);
  EXPECT_EQ(r.stats.count(), 3u);
}

TEST(MonteCarlo, AllFailuresThrow) {
  Circuit ckt = make_two_transistor_circuit();
  variation::MonteCarloOptions options;
  options.trials = 3;
  auto metric = [](Circuit&) -> double {
    throw ConvergenceError("always fails");
  };
  EXPECT_THROW(variation::monte_carlo(ckt, metric, options), Error);
}

// One butterfly half-cell of the hybrid SRAM in the read condition, its
// left storage node driven by "Vsweep" (the SNM benches' testbench).
Circuit make_hybrid_half_cell() {
  core::SramConfig config;
  config.kind = core::SramKind::kHybrid;
  core::SramBenchMode mode;
  mode.wordline = config.vdd;
  core::SramCell cell = core::build_sram_cell(config, mode);
  Circuit& ckt = cell.ckt();
  ckt.add<VoltageSource>("Vsweep", ckt.find_node(core::SramCell::kQl),
                         ckt.gnd(), SourceWave::dc(0.0));
  return std::move(ckt);
}

// Each trial's NEMFETs keep static_equilibrium's reuse memo behind const
// evaluation; trials own their circuits, so the run is race-free and
// thread-count independent.
TEST(MonteCarlo, ParallelHybridHalfCellSweepIsThreadCountIndependent) {
  auto metric = [](Circuit& c) {
    auto& sweep = c.find<VoltageSource>("Vsweep");
    spice::MnaSystem system(c);
    const std::vector<double> points = spice::linspace(0.0, 1.2, 31);
    const spice::Waveform wave = spice::dc_sweep(
        system, [&](double v) { sweep.set_dc(v); }, points);
    // Weighted sum of the transfer curve: any changed point shows.
    double folded = 0.0;
    double weight = 1.0;
    for (double v : wave.series("v(Xcell.qr)")) {
      folded += weight * v;
      weight *= 1.25;
    }
    return folded;
  };
  // Parallel Monte-Carlo as callers compose it: one fresh half-cell per
  // trial over parallel_map, each drawing from the trial's child stream.
  constexpr std::size_t kTrials = 8;
  const Rng root(7);
  auto trial = [&](std::size_t i) {
    Circuit c = make_hybrid_half_cell();
    Rng stream = root.child(i);
    variation::apply_vth_variation(c, 0.06, stream);
    return metric(c);
  };
  const std::vector<double> serial = util::parallel_map(kTrials, trial, 1);
  const std::vector<double> threaded = util::parallel_map(kTrials, trial, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  RunningStats spread;
  for (double v : serial) spread.add(v);
  EXPECT_GT(spread.stddev(), 0.0);  // the draws reach the curve
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial[i]),
              std::bit_cast<std::uint64_t>(threaded[i]))
        << "trial " << i << ": " << serial[i] << " vs " << threaded[i];
  }
}

// Exact evaluation sharing (DESIGN.md §7k) keeps its replay scratch in
// each MnaSystem's kernel plan: two column reads on different threads
// share nothing, so they match the serial reads bit for bit.
TEST(TwinSharing, ConcurrentColumnReadsMatchSerialReadsBitwise) {
  const std::vector<std::size_t> active_rows = {3, 12};
  auto read = [&](std::size_t i, spice::RunReport* report) {
    core::SramColumnConfig config;
    config.cell.kind = core::SramKind::kHybrid;
    config.n_cells = 16;
    config.active_cell = active_rows[i];
    return core::measure_column_read_latency_structural(config, 0.1, report);
  };
  std::vector<double> serial;
  for (std::size_t i = 0; i < active_rows.size(); ++i) {
    serial.push_back(read(i, nullptr));
  }
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::vector<spice::RunReport> reports(active_rows.size());
    const std::vector<double> parallel = util::parallel_map(
        active_rows.size(), [&](std::size_t i) { return read(i, &reports[i]); },
        threads);
    for (std::size_t i = 0; i < active_rows.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel[i]),
                std::bit_cast<std::uint64_t>(serial[i]))
          << "row " << active_rows[i] << ": " << parallel[i] << " vs "
          << serial[i];
      EXPECT_FALSE(reports[i].newton.twin_replays.empty())
          << "row " << active_rows[i] << " shared no evaluation";
    }
  }
}

TEST(MonteCarlo, MeanPlusSigmasAccessor) {
  variation::MonteCarloResult r;
  r.stats.add(1.0);
  r.stats.add(3.0);
  EXPECT_DOUBLE_EQ(r.mean_plus_sigmas(0.0), 2.0);
  EXPECT_GT(r.mean_plus_sigmas(3.0), r.worst() - 1.0);
}

}  // namespace
}  // namespace nemsim
