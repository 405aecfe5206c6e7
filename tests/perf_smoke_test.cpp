// Tier-2 perf smoke: full sparse assembly of the structural 64-cell SRAM
// column, the workload the type-bucketed kernel lanes were built for,
// runs entirely in lanes and shares exact evaluations between twin
// cells.  Asserts work counters, which no host load can move; the
// wall-clock ratio against a per-device Device::stamp loop on the same
// system is recorded as a test property only.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nemsim/core/sram.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"
#include "nemsim/spice/op.h"

namespace nemsim {
namespace {

std::uint64_t total_twin_replays(const spice::MnaSystem& system) {
  std::uint64_t replays = 0;
  for (const spice::KernelLane& lane : system.kernel_plan().lanes) {
    replays += lane.twin_replays;
  }
  return replays;
}

TEST(PerfSmoke, KernelStampThroughputOnStructuralColumn) {
  core::SramColumnConfig config;
  config.n_cells = 64;
  core::SramColumn col = core::build_sram_column(config);
  spice::MnaSystem system(col.ckt());
  core::nodeset_column_state(system, col);
  const spice::AnalysisMode mode = spice::AnalysisMode::kTransient;
  const double dt = 1e-12;
  linalg::CsrMatrix jac = system.make_sparse_jacobian();
  linalg::Vector residual, scale;

  // Every device of the column has a kernel descriptor: nothing falls
  // back to Device::stamp.
  const spice::KernelPlan& plan = system.kernel_plan();
  EXPECT_TRUE(plan.leftover_linear.empty());
  EXPECT_TRUE(plan.leftover_nonlinear.empty());

  // One lane pass at the nodeset start, where the idle cells are bitwise
  // twins, evaluates every nonlinear device exactly once and replays
  // most of those evaluations from a twin.  The replay count is pinned:
  // a change that loses sharing on the column moves it.
  constexpr std::uint64_t kPinnedReplays = 378;
  std::int64_t nonlinear_devices = 0;
  for (std::size_t i = 0; i < col.ckt().num_devices(); ++i) {
    if (!col.ckt().device(i).is_linear()) ++nonlinear_devices;
  }
  const std::int64_t evals_before = system.nonlinear_evals();
  const std::uint64_t replays_before = total_twin_replays(system);
  ASSERT_TRUE(system.assemble_sparse(system.initial_guess(), jac, residual,
                                     scale, mode, /*time=*/dt, dt,
                                     /*gmin=*/0.0, /*source_factor=*/1.0));
  EXPECT_EQ(system.nonlinear_evals() - evals_before, nonlinear_devices);
  EXPECT_EQ(total_twin_replays(system) - replays_before, kPinnedReplays);

  // Lane assembly against a per-device Device::stamp loop into the same
  // CSR matrix at the operating point — the loop pays a virtual call per
  // device and a CsrMatrix::slot search per Jacobian write, which the
  // frozen scatter maps eliminate.  Same system, same iterate, same
  // sink.  Recorded, not asserted: a wall-clock ratio moves with the
  // load on the host.
  const spice::OpResult op = spice::operating_point(system);
  const linalg::Vector& x = op.raw();
  auto lanes = [&] {
    EXPECT_TRUE(system.assemble_sparse(x, jac, residual, scale, mode,
                                       /*time=*/dt, dt, /*gmin=*/0.0,
                                       /*source_factor=*/1.0));
  };
  const std::size_t n = system.num_unknowns();
  auto stamps = [&] {
    jac.zero_values();
    residual.assign(n, 0.0);
    scale.assign(n, 0.0);
    spice::StampContext ctx(system, x, &jac, residual, scale);
    ctx.configure(mode, /*time=*/dt, dt, /*gmin=*/0.0, /*source_factor=*/1.0);
    for (std::size_t i = 0; i < col.ckt().num_devices(); ++i) {
      col.ckt().device(i).stamp(ctx);
    }
  };
  auto best_batch = [](auto&& assemble) {
    constexpr std::size_t kReps = 40;
    constexpr int kBatches = 3;
    for (int warm = 0; warm < 2; ++warm) assemble();
    double best = 1e300;
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kReps; ++i) assemble();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };

  const double kernel_s = best_batch(lanes);
  const double stamp_s = best_batch(stamps);
  const double speedup = stamp_s / kernel_s;
  RecordProperty("lane_assembly_speedup", std::to_string(speedup));
}

}  // namespace
}  // namespace nemsim
