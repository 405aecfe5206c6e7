// Batched Monte-Carlo benchmark: SNM spread of the Figure 14 hybrid
// butterfly under threshold variation, 64 trials, two drivers:
//
//   rebuild_per_trial    the pre-compile workflow — every trial builds
//                        both half-cell testbench circuits and their
//                        MnaSystems from scratch
//   compile_once_batch   compile() both testbenches once, per trial
//                        install the variation draw as a parameter-bank
//                        overlay (bitwise-identical samples by contract)
//
// Prints wall-clock for each arm plus the setup-work ledger: the batched
// arm builds 2 circuits + 2 systems total where the rebuild arm builds
// 2 * trials of each.  Exits 0 only when the two arms' samples match
// bitwise (a ctest runs it as that self-check).
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "nemsim/core/sram.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/compile.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/util/rng.h"
#include "nemsim/util/table.h"
#include "nemsim/variation/montecarlo.h"

namespace {

using namespace nemsim;
using core::SramBenchMode;
using core::SramCell;
using core::SramConfig;
using spice::Circuit;
using spice::CompiledCircuit;

constexpr std::size_t kTrials = 64;
constexpr std::size_t kPoints = 121;
constexpr double kSigma = 0.06;
constexpr std::uint64_t kSeed = 20070604;

/// One half-cell butterfly testbench (read condition, storage node
/// driven by "Vsweep"), as half_cell_transfer builds it.
Circuit make_half_cell(bool drive_ql) {
  SramConfig config;
  config.kind = core::SramKind::kHybrid;
  SramBenchMode mode;
  mode.drive_bitlines = true;
  mode.wordline = config.vdd;
  SramCell cell = core::build_sram_cell(config, mode);
  Circuit ckt = std::move(cell.ckt());
  const char* driven = drive_ql ? SramCell::kQl : SramCell::kQr;
  ckt.add<devices::VoltageSource>("Vsweep", ckt.find_node(driven), ckt.gnd(),
                                  devices::SourceWave::dc(0.0));
  return ckt;
}

const char* sensed_signal(bool drive_ql) {
  return drive_ql ? "v(Xcell.qr)" : "v(Xcell.ql)";
}

struct ArmResult {
  std::string name;
  double wall_s = 0.0;
  std::size_t circuits_built = 0;
  std::size_t systems_built = 0;
  std::vector<double> samples;

  double mean() const {
    double s = 0.0;
    for (double v : samples) s += v;
    return s / static_cast<double>(samples.size());
  }
  double stddev() const {
    const double m = mean();
    double s = 0.0;
    for (double v : samples) s += (v - m) * (v - m);
    return std::sqrt(s / static_cast<double>(samples.size() - 1));
  }
};

/// Rebuild-per-trial arm: the legacy Monte-Carlo shape — fresh circuits
/// and MnaSystems every trial.
ArmResult run_rebuild_arm(const std::vector<double>& points) {
  ArmResult arm;
  arm.name = "rebuild_per_trial";
  const Rng root(kSeed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    std::vector<double> curves[2];
    for (int side = 0; side < 2; ++side) {
      const bool drive_ql = side == 0;
      Circuit ckt = make_half_cell(drive_ql);
      // Both testbenches share the device build order, so a re-derived
      // child stream applies the identical draw to each.
      Rng stream = root.child(trial);
      variation::apply_vth_variation(ckt, kSigma, stream);
      spice::MnaSystem system(ckt);
      ++arm.circuits_built;
      ++arm.systems_built;
      auto& vsweep = ckt.find<devices::VoltageSource>("Vsweep");
      spice::DcSweepOptions o;
      o.lint = lint::LintMode::kOff;
      const spice::Waveform sweep = spice::dc_sweep(
          system, [&](double v) { vsweep.set_dc(v); }, points, o);
      curves[side] = sweep.series(sensed_signal(drive_ql));
    }
    arm.samples.push_back(core::extract_snm(points, curves[0], curves[1]));
  }
  const auto t1 = std::chrono::steady_clock::now();
  arm.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return arm;
}

/// Compile-once arm: both testbenches compiled up front, per-trial draws
/// installed as bank overlays.  Setup (the two compiles) is inside the
/// timed region — the comparison is end-to-end.
ArmResult run_batch_arm(const std::vector<double>& points) {
  ArmResult arm;
  arm.name = "compile_once_batch";
  const Rng root(kSeed);
  const auto t0 = std::chrono::steady_clock::now();
  spice::CompileOptions co;
  co.lint = lint::LintMode::kOff;
  CompiledCircuit fwd = spice::compile(make_half_cell(true), co);
  CompiledCircuit rev = spice::compile(make_half_cell(false), co);
  arm.circuits_built = 2;
  arm.systems_built = 2;
  CompiledCircuit* sides[2] = {&fwd, &rev};
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    std::vector<double> curves[2];
    for (int side = 0; side < 2; ++side) {
      CompiledCircuit& cc = *sides[side];
      Rng stream = root.child(trial);
      cc.set_overlay(
          variation::vth_variation_patch(cc.circuit(), kSigma, stream));
      auto& vsweep = cc.circuit().find<devices::VoltageSource>("Vsweep");
      const spice::Waveform sweep = cc.run_dc_sweep(
          [&](double v) { vsweep.set_dc(v); }, points);
      curves[side] = sweep.series(sensed_signal(side == 0));
    }
    arm.samples.push_back(core::extract_snm(points, curves[0], curves[1]));
  }
  fwd.clear_overlay();
  rev.clear_overlay();
  const auto t1 = std::chrono::steady_clock::now();
  arm.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return arm;
}

}  // namespace

int main() {
  std::cout << "Batched Monte-Carlo: hybrid SRAM butterfly SNM under "
            << kSigma * 100 << " % Vth variation, " << kTrials
            << " trials\n\n";

  const std::vector<double> points =
      spice::linspace(0.0, SramConfig{}.vdd, kPoints);
  std::vector<ArmResult> arms;
  arms.push_back(run_rebuild_arm(points));
  arms.push_back(run_batch_arm(points));

  bool bitwise = arms[0].samples.size() == arms[1].samples.size();
  for (std::size_t i = 0; bitwise && i < arms[0].samples.size(); ++i) {
    bitwise = arms[0].samples[i] == arms[1].samples[i];
  }
  const double speedup = arms[0].wall_s / arms[1].wall_s;
  const double setup_reduction =
      static_cast<double>(arms[0].circuits_built + arms[0].systems_built) /
      static_cast<double>(arms[1].circuits_built + arms[1].systems_built);

  Table t({"arm", "wall (s)", "builds", "SNM mean (mV)", "SNM std (mV)"});
  for (const ArmResult& a : arms) {
    t.begin_row()
        .cell(a.name)
        .cell(a.wall_s, 3)
        .cell(static_cast<int>(a.circuits_built + a.systems_built))
        .cell(a.mean() * 1e3, 3)
        .cell(a.stddev() * 1e3, 3);
  }
  t.print(std::cout);
  std::cout << "\nbatch vs rebuild: bitwise samples "
            << (bitwise ? "MATCH" : "MISMATCH") << ", wall speedup "
            << Table::format(speedup, 2) << "x, setup-work reduction "
            << static_cast<int>(setup_reduction) << "x\n";
  return bitwise ? 0 : 1;
}
