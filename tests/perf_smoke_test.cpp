// Tier-2 perf smoke: the type-bucketed kernel lanes must actually pay off
// on the workload they were built for — full sparse assembly of the
// structural 64-cell SRAM column.  Asserts an A/B ratio against a
// per-device Device::stamp loop on the same system, so the test is
// meaningful in any build type.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "nemsim/core/sram.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/op.h"

namespace nemsim {
namespace {

TEST(PerfSmoke, KernelStampThroughputOnStructuralColumn) {
  // Lane assembly must beat a per-device Device::stamp loop into the
  // same CSR matrix on full sparse assembly of the 64-cell structural
  // column — the loop pays a virtual call per device and a
  // CsrMatrix::slot search per Jacobian write, which the frozen scatter
  // maps eliminate.  Same system, same iterate, same sink.
  core::SramColumnConfig config;
  config.n_cells = 64;
  core::SramColumn col = core::build_sram_column(config);
  spice::MnaSystem system(col.ckt());
  core::nodeset_column_state(system, col);
  const spice::OpResult op = spice::operating_point(system);
  const linalg::Vector& x = op.raw();
  const spice::AnalysisMode mode = spice::AnalysisMode::kTransient;
  const double dt = 1e-12;

  linalg::CsrMatrix jac = system.make_sparse_jacobian();
  linalg::Vector residual, scale;
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
  EXPECT_GE(speedup, 1.3) << "Device::stamp loop " << stamp_s
                          << " s vs lanes " << kernel_s
                          << " s over 40 assemblies";
}

}  // namespace
}  // namespace nemsim
