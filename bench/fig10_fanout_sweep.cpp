// Figure 10 reproduction: normalized switching power and worst-case delay
// of the 8-input hybrid NEMS-CMOS and CMOS dynamic OR gates vs fan-out.
//
// Paper: hybrid shows ~10 % (FO1) to ~20 % (FO5) higher delay but 60-80 %
// lower switching power.  Normalization follows the paper: power w.r.t.
// the hybrid gate at FO1, delay w.r.t. the CMOS gate at FO1.
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

  std::cout << "Figure 10: 8-input dynamic OR, fan-out sweep\n\n";

  // One task per (fan-out, variant); tasks share nothing, results are
  // collected in input order (thread-count independent).
  constexpr int kMaxFanout = 5;
  std::vector<DynamicOrMetrics> metrics = util::parallel_map(
      static_cast<std::size_t>(kMaxFanout) * 2, [&](std::size_t i) {
        DynamicOrConfig c;
        c.fanin = 8;
        c.fanout = static_cast<int>(i / 2) + 1;
        c.hybrid = (i % 2 == 1);
        DynamicOrGate gate = build_dynamic_or(c);
        return measure_dynamic_or(gate);
      });

  struct Row {
    int fanout;
    DynamicOrMetrics cmos, hybrid;
  };
  std::vector<Row> rows;
  for (int fo = 1; fo <= kMaxFanout; ++fo) {
    rows.push_back(Row{fo, metrics[2 * (fo - 1)], metrics[2 * (fo - 1) + 1]});
  }

  const double p_norm = rows.front().hybrid.switching_power;
  const double d_norm = rows.front().cmos.worst_case_delay;

  Table t({"fan-out", "P_cmos (norm)", "P_hybrid (norm)", "P saving",
           "D_cmos (norm)", "D_hybrid (norm)", "D penalty"});
  for (const Row& r : rows) {
    const double saving =
        1.0 - r.hybrid.switching_power / r.cmos.switching_power;
    const double penalty =
        r.hybrid.worst_case_delay / r.cmos.worst_case_delay - 1.0;
    t.begin_row()
        .cell(r.fanout)
        .cell(r.cmos.switching_power / p_norm, 3)
        .cell(r.hybrid.switching_power / p_norm, 3)
        .cell(Table::format(saving * 100.0, 3) + " %")
        .cell(r.cmos.worst_case_delay / d_norm, 3)
        .cell(r.hybrid.worst_case_delay / d_norm, 3)
        .cell(Table::format(penalty * 100.0, 3) + " %");
  }
  t.print(std::cout);

  std::cout << "\nAbsolute values at FO1: CMOS "
            << Table::format(rows[0].cmos.worst_case_delay * 1e12, 3)
            << " ps / "
            << Table::format(rows[0].cmos.switching_power * 1e6, 3)
            << " uW; hybrid "
            << Table::format(rows[0].hybrid.worst_case_delay * 1e12, 3)
            << " ps / "
            << Table::format(rows[0].hybrid.switching_power * 1e6, 3)
            << " uW\n";
  std::cout << "Paper: hybrid delay +10 % (FO1) to +20 % (FO5); switching "
               "power 60-80 % lower.\n";

  if (diag.enabled) {
    // Representative instance: the heaviest load (FO5, hybrid), re-run
    // with a RunReport attached.
    DynamicOrConfig c;
    c.fanin = 8;
    c.fanout = kMaxFanout;
    c.hybrid = true;
    DynamicOrGate gate = build_dynamic_or(c);
    spice::RunReport report;
    measure_dynamic_or(gate, &report);
    bench::emit_report(diag, report);
  }
  return 0;
}
