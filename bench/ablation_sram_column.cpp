// Ablation: SRAM column depth vs read latency (paper Section 5.1).
//
// "The higher leakage current of OFF access transistors (in other cells
// that are connected to the BLB) makes it tougher for the access
// transistors to create the necessary voltage difference for sense
// amplifiers."  The idle cells droop the reference bitline, so the
// differential the sense amp needs takes longer to develop as the column
// grows - and the effect is worst for the slowest (hybrid) cell.
#include <iostream>
#include <string>

#include "nemsim/core/sram.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/util/table.h"

int main() {
  using namespace nemsim;
  using namespace nemsim::core;

  std::cout << "Ablation: read latency vs column depth (idle cells "
               "sharing the bitlines)\n\n";

  const SramKind kinds[] = {SramKind::kConventional, SramKind::kDualVt,
                            SramKind::kHybrid};
  const std::size_t depths[] = {0, 64, 256, 1024};

  Table t({"cell", "alone (ps)", "64 cells", "256 cells", "1024 cells",
           "1024/alone"});
  for (SramKind kind : kinds) {
    SramConfig c;
    c.kind = kind;
    double lat[4];
    for (int i = 0; i < 4; ++i) {
      lat[i] = measure_column_read_latency(c, depths[i]);
    }
    t.begin_row()
        .cell(sram_kind_name(kind))
        .cell(lat[0] * 1e12, 4)
        .cell(lat[1] * 1e12, 4)
        .cell(lat[2] * 1e12, 4)
        .cell(lat[3] * 1e12, 4)
        .cell(Table::format(lat[3] / lat[0], 3) + "x");
  }
  t.print(std::cout);

  std::cout << "\nDeep columns amplify every cell's latency; the hybrid "
               "cell's weaker read current makes it the most sensitive, "
               "which bounds practical column depth for hybrid arrays.\n";

  // Structural cross-check: elaborate the real 64-cell column (every idle
  // cell its own "Xcell<i>" bitcell instance, nemsim/core/sram.h) and
  // compare against the lumped-leaker model above.  This is also the
  // hierarchy-at-scale exercise: hundreds of devices, and the MNA system
  // is far past the sparse fast-path threshold.
  std::cout << "\nStructural 64-cell column (elaborated instances) vs the "
               "lumped idle-cell model:\n\n";
  Table s({"cell", "devices", "nodes", "sparse", "lumped (ps)",
           "structural (ps)", "ratio"});
  for (SramKind kind : {SramKind::kConventional, SramKind::kHybrid}) {
    SramConfig c;
    c.kind = kind;
    SramColumnConfig col_cfg;
    col_cfg.cell = c;
    col_cfg.n_cells = 64;
    SramColumn col = build_sram_column(col_cfg);
    const std::size_t devices = col.ckt().num_devices();
    const std::size_t nodes = col.ckt().num_nodes();
    spice::RunReport report;
    const double structural =
        measure_column_read_latency_structural(col_cfg, 0.1, &report);
    const double lumped = measure_column_read_latency(c, 63);
    s.begin_row()
        .cell(sram_kind_name(kind))
        .cell(std::to_string(devices))
        .cell(std::to_string(nodes))
        .cell(report.newton.used_sparse ? "yes" : "no")
        .cell(lumped * 1e12, 4)
        .cell(structural * 1e12, 4)
        .cell(Table::format(structural / lumped, 3) + "x");
  }
  s.print(std::cout);

  std::cout << "\nThe lumped model folds all idle access leakage into one "
               "wide device; the structural column keeps each cell's "
               "storage feedback, so the two agree to within the model's "
               "fidelity and the structural run is the ground truth.\n";
  return 0;
}
