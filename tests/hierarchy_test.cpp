// Hierarchical netlist tests: elaboration at scale (the 64-cell SRAM
// column against a hand-flattened twin, bitwise), .subckt round trips
// through the exporter and parser, and the deck-level error contract
// (duplicate instance names, port arity) with line numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "nemsim/core/cells.h"
#include "nemsim/core/sram.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/lint.h"
#include "nemsim/spice/netlist_export.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/tech/netlist_parser.h"
#include "nemsim/util/error.h"

namespace nemsim {
namespace {

using devices::Capacitor;
using devices::Mosfet;
using devices::MosPolarity;
using devices::Nemfet;
using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;
using spice::MnaSystem;
using spice::NodeId;

// ------------------------------------------- 64-cell bitwise equivalence

constexpr std::size_t kCells = 64;

core::SramColumnConfig conventional_column() {
  core::SramColumnConfig cfg;
  cfg.cell.kind = core::SramKind::kConventional;
  cfg.n_cells = kCells;
  return cfg;
}

/// Hand-flattened twin of core::build_sram_column for the conventional
/// cell: the same devices with the same parameters, created in the same
/// order as elaboration produces them (testbench first, then per cell
/// MAL, MAR, MNL, MNR, MPL, MPR with storage nodes ql/qr created ahead
/// of the cell's devices).  Names are flat — only the ordering and the
/// numbers must match for the MNA systems to be bitwise identical.
Circuit build_flat_column(const core::SramColumnConfig& cfg) {
  const core::SramConfig& c = cfg.cell;
  Circuit ckt;
  NodeId vdd = ckt.node("vdd");
  NodeId bl = ckt.node("bl");
  NodeId blb = ckt.node("blb");
  NodeId wl = ckt.node("wl");
  ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(c.vdd));
  ckt.add<VoltageSource>("Vwl", wl, ckt.gnd(), SourceWave::dc(0.0));
  ckt.add<Capacitor>("Cbl", bl, ckt.gnd(), c.bitline_cap);
  ckt.add<Capacitor>("Cblb", blb, ckt.gnd(), c.bitline_cap);
  for (std::size_t i = 0; i < cfg.n_cells; ++i) {
    const std::string k = std::to_string(i);
    NodeId cell_wl = i == cfg.active_cell ? wl : ckt.gnd();
    NodeId ql = ckt.node("ql" + k);
    NodeId qr = ckt.node("qr" + k);
    ckt.add<Mosfet>("MAL" + k, bl, cell_wl, ql, MosPolarity::kNmos,
                    tech::nmos_90nm(), c.w_access, c.l);
    ckt.add<Mosfet>("MAR" + k, blb, cell_wl, qr, MosPolarity::kNmos,
                    tech::nmos_90nm(), c.w_access, c.l);
    ckt.add<Mosfet>("MNL" + k, ql, qr, ckt.gnd(), MosPolarity::kNmos,
                    tech::nmos_90nm(), c.w_pulldown, c.l);
    ckt.add<Mosfet>("MNR" + k, qr, ql, ckt.gnd(), MosPolarity::kNmos,
                    tech::nmos_90nm(), c.w_pulldown, c.l);
    ckt.add<Mosfet>("MPL" + k, ql, qr, vdd, MosPolarity::kPmos,
                    tech::pmos_90nm(), c.w_pullup, c.l);
    ckt.add<Mosfet>("MPR" + k, qr, ql, vdd, MosPolarity::kPmos,
                    tech::pmos_90nm(), c.w_pullup, c.l);
  }
  return ckt;
}

void nodeset_flat_column(MnaSystem& system, Circuit& ckt,
                         const core::SramColumnConfig& cfg) {
  for (std::size_t i = 0; i < cfg.n_cells; ++i) {
    const double vql = cfg.cell_stores_one(i) ? cfg.cell.vdd : 0.0;
    system.set_nodeset(ckt.find_node("ql" + std::to_string(i)), vql);
    system.set_nodeset(ckt.find_node("qr" + std::to_string(i)),
                       cfg.cell.vdd - vql);
  }
}

TEST(ColumnHierarchy, SixtyFourCellOpBitwiseMatchesHandFlattened) {
  const core::SramColumnConfig cfg = conventional_column();
  core::SramColumn col = core::build_sram_column(cfg);
  Circuit flat = build_flat_column(cfg);
  ASSERT_EQ(col.ckt().num_devices(), flat.num_devices());
  ASSERT_EQ(col.ckt().num_nodes(), flat.num_nodes());

  MnaSystem hier_sys(col.ckt());
  MnaSystem flat_sys(flat);
  ASSERT_EQ(hier_sys.num_unknowns(), flat_sys.num_unknowns());
  core::nodeset_column_state(hier_sys, col);
  nodeset_flat_column(flat_sys, flat, cfg);

  // A 64-cell column is far past the sparse fast-path threshold; the
  // elaborated hierarchy must ride it like any flat circuit.
  spice::RunReport report;
  spice::OpOptions options;
  options.report = &report;
  spice::OpResult hier_op = spice::operating_point(hier_sys, options);
  spice::OpResult flat_op = spice::operating_point(flat_sys, options);
  EXPECT_TRUE(report.newton.used_sparse);

  for (std::size_t i = 0; i < hier_sys.num_unknowns(); ++i) {
    EXPECT_EQ(hier_op.raw()[i], flat_op.raw()[i]) << "unknown " << i;
  }
  // Spot-check through the hierarchical name table: the active cell holds
  // a zero, the idle cells hold ones.
  EXPECT_LT(hier_op.v(col.cell_node(0, "ql")), 0.1);
  EXPECT_GT(hier_op.v(col.cell_node(1, "ql")), 0.9 * cfg.cell.vdd);
}

TEST(ColumnHierarchy, SixtyFourCellTransientBitwiseMatchesHandFlattened) {
  const core::SramColumnConfig cfg = conventional_column();
  core::SramColumn col = core::build_sram_column(cfg);
  Circuit flat = build_flat_column(cfg);

  // A read-like event: wordline pulse into precharged bitlines.
  const SourceWave wl_pulse =
      SourceWave::pulse(0.0, cfg.cell.vdd, 0.1e-9, 20e-12, 20e-12, 2e-9);
  col.ckt().find<VoltageSource>("Vwl").set_wave(wl_pulse);
  flat.find<VoltageSource>("Vwl").set_wave(wl_pulse);

  auto run = [&](Circuit& ckt, bool hier) {
    MnaSystem system(ckt);
    if (hier) {
      core::nodeset_column_state(system, col);
    } else {
      nodeset_flat_column(system, flat, cfg);
    }
    system.set_nodeset(ckt.find_node("bl"), cfg.cell.vdd);
    system.set_nodeset(ckt.find_node("blb"), cfg.cell.vdd);
    spice::TransientOptions options;
    options.tstop = 0.5e-9;
    options.dt_initial = 1e-13;
    return spice::transient(system, options);
  };
  spice::Waveform hier_wave = run(col.ckt(), true);
  spice::Waveform flat_wave = run(flat, false);

  // Identical systems take identical adaptive steps and identical Newton
  // paths: every accepted timepoint and every sample matches bitwise.
  ASSERT_EQ(hier_wave.num_samples(), flat_wave.num_samples());
  ASSERT_EQ(hier_wave.times(), flat_wave.times());
  EXPECT_EQ(hier_wave.series("v(bl)"), flat_wave.series("v(bl)"));
  EXPECT_EQ(hier_wave.series("v(blb)"), flat_wave.series("v(blb)"));
  EXPECT_EQ(hier_wave.series("v(" + col.cell_node(0, "ql") + ")"),
            flat_wave.series("v(ql0)"));
}

// ---------------------------------------------------- .subckt round trip

// Sorted (rule, subject) pairs — the comparable essence of a report.
std::vector<std::pair<std::string, std::string>> essence(
    const lint::LintReport& r) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(r.findings.size());
  for (const auto& f : r.findings) out.push_back({f.rule, f.subject});
  std::sort(out.begin(), out.end());
  return out;
}

TEST(HierarchyRoundTrip, ColumnSurvivesExportParseLint) {
  core::SramColumnConfig cfg = conventional_column();
  cfg.n_cells = 4;
  core::SramColumn col = core::build_sram_column(cfg);
  Circuit& original = col.ckt();

  lint::LintReport before = lint::lint_circuit(original);
  EXPECT_TRUE(before.clean()) << before.summary();

  const std::string text = spice::netlist_string(original, "column rt");
  Circuit reparsed = tech::parse_netlist(text);

  // Structure survives: same device count, the instances come back as
  // instances, and the hierarchical paths resolve.
  EXPECT_EQ(reparsed.num_devices(), original.num_devices());
  EXPECT_TRUE(reparsed.has_instance("Xcell0"));
  EXPECT_TRUE(reparsed.has_instance("Xcell3"));
  EXPECT_NO_THROW(reparsed.find_device("Xcell2.MAL"));
  EXPECT_NO_THROW(reparsed.find_node("Xcell2.ql"));

  lint::LintReport after = lint::lint_circuit(reparsed);
  EXPECT_TRUE(after.clean()) << after.summary();
  EXPECT_EQ(essence(before), essence(after));

  // And the reparsed twin solves to the same operating point (same
  // voltages by name; unknown ordering differs, so not bitwise).
  auto solve = [&](Circuit& ckt) {
    MnaSystem system(ckt);
    for (std::size_t i = 0; i < cfg.n_cells; ++i) {
      const double vql = cfg.cell_stores_one(i) ? cfg.cell.vdd : 0.0;
      system.set_nodeset(ckt.find_node("Xcell" + std::to_string(i) + ".ql"),
                         vql);
      system.set_nodeset(ckt.find_node("Xcell" + std::to_string(i) + ".qr"),
                         cfg.cell.vdd - vql);
    }
    return spice::operating_point(system);
  };
  spice::OpResult op1 = solve(original);
  spice::OpResult op2 = solve(reparsed);
  for (std::size_t i = 0; i < cfg.n_cells; ++i) {
    const std::string ql = "Xcell" + std::to_string(i) + ".ql";
    EXPECT_NEAR(op1.v(ql), op2.v(ql), 1e-8) << ql;
  }
}

// ------------------------------------------------------- error contract

TEST(HierarchyErrors, DuplicateInstanceNameCarriesLineNumber) {
  const char* deck =
      "* dup\n"
      ".subckt divider a b\n"
      "R1 a b 1k\n"
      ".ends\n"
      "X1 n1 0 divider\n"
      "X1 n1 0 divider\n"
      ".end\n";
  try {
    tech::parse_netlist(deck);
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 6"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate subcircuit instance"), std::string::npos)
        << what;
  }
}

TEST(HierarchyErrors, PortArityMismatchCarriesLineNumber) {
  const char* deck =
      "* arity\n"
      ".subckt divider a b\n"
      "R1 a b 1k\n"
      ".ends\n"
      "X1 n1 divider\n"
      ".end\n";
  try {
    tech::parse_netlist(deck);
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
  }
}

// --------------------------------------- X-card dispatch coexistence

TEST(HierarchyParser, NemfetXCardCoexistsWithSubcktInstances) {
  // Regression for the X-element dispatch: "X... NEMFET_N" must stay a
  // device card even when the deck defines and instantiates subcircuits.
  Circuit ckt = tech::parse_netlist(R"(* mixed
Vd d 0 DC 1.2
Vg g 0 DC 1.2
.subckt divider a b
R1 a b 1k
.ends
Xr d mid divider
Rload mid 0 1k
Xn d g 0 NEMFET_N W=1u
.end
)");
  EXPECT_TRUE(ckt.has_instance("Xr"));
  EXPECT_FALSE(ckt.has_instance("Xn"));
  EXPECT_NO_THROW(ckt.find_device("Xr.R1"));
  const auto& x = ckt.find<Nemfet>("Xn");

  MnaSystem system(ckt);
  spice::OpResult op = spice::operating_point(system);
  EXPECT_NEAR(op.v("mid"), 0.6, 1e-6);  // 1k/1k divider from 1.2 V
  EXPECT_GT(op.x(x.unknown_x()), 0.9 * x.params().gap0);  // beam pulled in
}

}  // namespace
}  // namespace nemsim
