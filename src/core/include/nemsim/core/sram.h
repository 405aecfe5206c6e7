// SRAM cells of paper Figure 13 and their evaluation metrics:
// (a) conventional 6T, (b) dual-Vt, (c) asymmetric, (d) the proposed
// hybrid NEMS-CMOS cell — plus static noise margin (butterfly curves),
// read latency, and standby leakage (Figures 14-15).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nemsim/spice/circuit.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/waveform.h"

namespace nemsim::spice {
class MnaSystem;
}  // namespace nemsim::spice

namespace nemsim::core {

enum class SramKind {
  kConventional,  ///< Figure 13 (a): all nominal-Vt 6T
  kDualVt,        ///< Figure 13 (b): high-Vt cross-coupled inverters [25]
  kAsymmetric,    ///< Figure 13 (c): high-Vt on the zero-state leakage paths [26]
  kHybrid,        ///< Figure 13 (d): NEMS pull-up and pull-down devices
  /// The paper's Section 5.3 alternative: only the PMOS pull-ups become
  /// NEMS.  Read latency is untouched (PMOS is off during a read) but
  /// the leaky NMOS pull-downs remain, so the leakage saving is smaller.
  kHybridPullupOnly,
};

const char* sram_kind_name(SramKind kind);

struct SramConfig {
  SramKind kind = SramKind::kConventional;
  double vdd = 1.2;
  double w_access = 0.2e-6;   ///< AL / AR
  double w_pulldown = 0.3e-6; ///< NL / NR
  double w_pullup = 0.15e-6;  ///< PL / PR
  double l = 1e-7;
  /// NEMS device sizing (calibrated so the hybrid cell reproduces the
  /// paper's ~14 % SNM reduction at minor latency cost).
  double w_nems_pulldown = 0.3e-6;
  double w_nems_pullup = 0.3e-6;
  double bitline_cap = 20e-15;  ///< lumped BL capacitance (array + wire)
  /// Stored value: true means QL = Vdd ("1"), false QL = 0 ("0").
  bool stored_one = false;
  /// Newton solver knobs for every analysis the benches run on this cell
  /// (solver path, tolerances, kernel lanes).
  spice::NewtonOptions newton{};
};

/// A built cell with its testbench sources.
///
/// The bitcell itself is a subcircuit instance named "Xcell"
/// (nemsim/core/cells.h), so the storage nodes carry hierarchical paths:
/// "Xcell.ql" / "Xcell.qr" (kQl / kQr below).  Testbench nodes stay top
/// level: "bl", "blb", "wl".  Sources: "Vdd", "Vwl"; plus "Vbl"/"Vblb"
/// when the bitlines are driven (read/SNM benches) — the standby bench
/// leaves them floating behind capacitors.
struct SramCell {
  /// Hierarchical storage-node paths of the "Xcell" instance.
  static constexpr const char* kQl = "Xcell.ql";
  static constexpr const char* kQr = "Xcell.qr";

  SramConfig config;
  std::unique_ptr<spice::Circuit> circuit;
  spice::Circuit& ckt() { return *circuit; }
};

/// Options controlling how the testbench dresses the cell.
struct SramBenchMode {
  bool drive_bitlines = true;   ///< Vbl/Vblb sources present
  double wordline = 0.0;        ///< DC wordline voltage
};

SramCell build_sram_cell(const SramConfig& config,
                         const SramBenchMode& mode = {});

/// One butterfly lobe: the VTC of one half-cell under read stress
/// (wordline high, both bitlines precharged to Vdd).
struct ButterflyCurves {
  std::vector<double> v_in;    ///< swept storage-node voltage
  std::vector<double> v_fwd;   ///< QL -> QR transfer
  std::vector<double> v_rev;   ///< QR -> QL transfer
  double snm = 0.0;            ///< largest embedded square (V)
};

/// Sweeps both half-cell transfer curves in the read condition and
/// extracts the static noise margin (largest square between the lobes,
/// Seevinck's rotated-axis method).
ButterflyCurves measure_butterfly(const SramConfig& config,
                                  std::size_t points = 121);

/// Read latency: wordline pulse with bitlines precharged to Vdd through
/// their lumped capacitance; time from WL 50 % rising until the read
/// bitline has discharged by `sense_margin` volts.  An optional RunReport
/// sink collects the transient diagnostics of the underlying run.
double measure_read_latency(const SramConfig& config,
                            double sense_margin = 0.1,
                            spice::RunReport* report = nullptr);

/// Standby leakage power: wordline low, bitlines floating (precharge
/// gated off in standby), cell holding its value.  Total static power
/// from all supplies.
double measure_standby_leakage(const SramConfig& config);

/// Standby leakage with bitlines held at Vdd (precharge kept on); the
/// alternative convention, reported by the bench for comparison.
double measure_standby_leakage_precharged(const SramConfig& config);

/// Seevinck SNM extraction from two transfer curves sampled on the same
/// input grid.  Exposed for tests.
double extract_snm(const std::vector<double>& v_in,
                   const std::vector<double>& v_fwd,
                   const std::vector<double>& v_rev);

/// Write operation result.
struct WriteResult {
  bool flipped = false;     ///< the cell took the new value
  double latency = 0.0;     ///< WL 50 % to storage-node crossing (s)
};

/// Writes the opposite of the stored value through the access transistors
/// (bitlines driven full-rail, wordline pulsed for `wl_pulse` seconds)
/// and reports whether the cell flipped and how fast.  Hybrid cells must
/// also move their beams, which shows up as write latency.
WriteResult measure_write(const SramConfig& config, double wl_pulse = 1e-9);

/// Minimum wordline pulse width that reliably flips the cell (bisection
/// between lo and hi); a writability margin metric.
double measure_min_write_pulse(const SramConfig& config, double lo = 2e-11,
                               double hi = 2e-9);

/// Column study (paper Section 5.1): reading one cell on a bitline shared
/// with `idle_cells` other cells.  The idle cells' OFF access transistors
/// leak INTO the discharging bitline (they all store the opposite value),
/// fighting the read and stretching the latency - worse the leakier the
/// access devices.  Returns the read latency of the accessed cell.
///
/// This variant lumps the idle cells into one wide leaker device (cheap,
/// scales to any depth); build_sram_column below elaborates the real
/// structural column instead.
double measure_column_read_latency(const SramConfig& config,
                                   std::size_t idle_cells,
                                   double sense_margin = 0.1);

// ---------------------------------------------------------------- column

/// A full structural bitline column: `n_cells` bitcell instances sharing
/// bl/blb, with only the active cell's wordline driven.
struct SramColumnConfig {
  SramConfig cell;                 ///< architecture + sizing of every cell
  std::size_t n_cells = 64;
  std::size_t active_cell = 0;     ///< the accessed row
  /// Worst case for reads (and the paper's Section 5.1 setup): every idle
  /// cell stores the value whose OFF access transistor leaks the
  /// *reference* bitline down toward its storage node.
  bool idle_store_opposite = true;

  /// Stored value of cell `i` under this configuration.
  bool cell_stores_one(std::size_t i) const {
    if (i == active_cell) return cell.stored_one;
    return idle_store_opposite ? !cell.stored_one : cell.stored_one;
  }
};

/// A built column.  Cells are subcircuit instances "Xcell0".."Xcell<n-1>"
/// of the sram_bitcell_cell definition, so storage nodes are
/// "Xcell<i>.ql" / "Xcell<i>.qr".  Top-level nodes: "bl", "blb", "wl"
/// (active row only), "vdd"; sources "Vdd", "Vwl"; bitline capacitors
/// "Cbl"/"Cblb".
struct SramColumn {
  SramColumnConfig config;
  std::unique_ptr<spice::Circuit> circuit;

  spice::Circuit& ckt() { return *circuit; }
  std::string cell_name(std::size_t i) const {
    return "Xcell" + std::to_string(i);
  }
  std::string cell_node(std::size_t i, const std::string& local) const {
    return cell_name(i) + "." + local;
  }
};

SramColumn build_sram_column(const SramColumnConfig& config);

/// Nodesets every cell's storage pair to its configured stored value so
/// the bistable column op lands on the intended state.
void nodeset_column_state(spice::MnaSystem& system, const SramColumn& col);

/// Read latency of the active cell measured on the real elaborated column
/// (every idle cell present as its own bitcell instance), rather than the
/// lumped leaker of measure_column_read_latency.  The 64-cell default
/// builds a few hundred devices; the MNA system crosses the sparse
/// fast-path threshold, so this is also the canonical "hierarchy at
/// scale" exercise (see bench/ablation_sram_column.cpp).
double measure_column_read_latency_structural(
    const SramColumnConfig& config, double sense_margin = 0.1,
    spice::RunReport* report = nullptr);

}  // namespace nemsim::core
