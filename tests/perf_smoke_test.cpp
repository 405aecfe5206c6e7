// Tier-2 perf smoke: the type-bucketed kernel lanes must actually pay off
// on the workload they were built for — full sparse assembly of the
// structural 64-cell SRAM column.  Asserts an A/B ratio of the same
// assembly on the same system, so the test is meaningful in any build
// type.
#include <gtest/gtest.h>

#include <chrono>

#include "nemsim/core/sram.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/op.h"

namespace nemsim {
namespace {

TEST(PerfSmoke, KernelStampThroughputOnStructuralColumn) {
  // The lane path must beat the virtual-dispatch path on full sparse
  // assembly of the 64-cell structural column — the workload whose
  // per-J-write CsrMatrix::slot searches it exists to eliminate.  This
  // is a direct A/B of the same assembly on the same system at the same
  // iterate, so the ratio is meaningful in any build type.
  core::SramColumnConfig config;
  config.n_cells = 64;
  core::SramColumn col = core::build_sram_column(config);
  spice::MnaSystem system(col.ckt());
  core::nodeset_column_state(system, col);
  const spice::OpResult op = spice::operating_point(system);
  const linalg::Vector& x = op.raw();

  linalg::CsrMatrix jac = system.make_sparse_jacobian();
  linalg::Vector residual, scale;
  const double dt = 1e-12;
  auto assemble_batch = [&](std::size_t reps) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      EXPECT_TRUE(system.assemble_sparse(x, jac, residual, scale,
                                         spice::AnalysisMode::kTransient,
                                         /*time=*/dt, dt, /*gmin=*/0.0,
                                         /*source_factor=*/1.0));
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };

  constexpr std::size_t kReps = 40;
  constexpr int kBatches = 3;
  // Warm-up both paths (kernels: builds the plan and resolves CSR slots;
  // virtual: faults in the pattern), then take each path's best batch.
  system.configure_kernels(false);
  assemble_batch(2);
  double virtual_s = 1e300;
  for (int b = 0; b < kBatches; ++b) {
    virtual_s = std::min(virtual_s, assemble_batch(kReps));
  }
  system.configure_kernels(true);
  assemble_batch(2);
  double kernel_s = 1e300;
  for (int b = 0; b < kBatches; ++b) {
    kernel_s = std::min(kernel_s, assemble_batch(kReps));
  }
  system.configure_kernels(false);

  const double speedup = virtual_s / kernel_s;
  RecordProperty("kernel_stamp_speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 1.3) << "virtual " << virtual_s << " s vs kernels "
                          << kernel_s << " s over " << kReps
                          << " assemblies";
}

}  // namespace
}  // namespace nemsim
