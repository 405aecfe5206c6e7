// Sparse MNA fast path: reusable sparse LU (symbolic analysis cached,
// numeric-only refactorization), pattern-frozen CSR assembly equivalence
// against the dense reference, dense-vs-sparse Newton equivalence on the
// paper circuits, and determinism of sweeps composed over parallel_map.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nemsim/core/dynamic_or.h"
#include "nemsim/core/gates.h"
#include "nemsim/core/sram.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/linalg/lu.h"
#include "nemsim/linalg/sparse.h"
#include "nemsim/linalg/sparse_lu.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/parallel.h"
#include "nemsim/util/rng.h"
#include "nemsim/variation/montecarlo.h"

namespace nemsim {
namespace {

using core::DynamicOrConfig;
using core::DynamicOrGate;
using devices::Mosfet;
using devices::MosPolarity;
using devices::Resistor;
using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;
using spice::MnaSystem;

// ------------------------------------------------------------ sparse LU

/// Random diagonally-weighted CSR test matrix.
linalg::CsrMatrix random_csr(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::size_t, std::size_t>> entries;
  for (std::size_t i = 0; i < n; ++i) {
    entries.emplace_back(i, i);
    for (int k = 0; k < 4; ++k) {
      entries.emplace_back(i, rng.index(n));
    }
  }
  linalg::CsrMatrix a(n, std::move(entries));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = a.row_start()[i]; s < a.row_start()[i + 1]; ++s) {
      a.values()[s] = (a.col_index()[s] == i) ? 8.0 : rng.uniform(-1.0, 1.0);
    }
  }
  return a;
}

linalg::Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-2.0, 2.0);
  return b;
}

TEST(SparseLu, FactorSolveMatchesDenseLu) {
  const std::size_t n = 40;
  linalg::CsrMatrix a = random_csr(n, 7);
  const linalg::Vector b = random_vector(n, 8);

  linalg::SparseLuFactorization lu;
  lu.factor(a);
  EXPECT_TRUE(lu.analyzed());
  EXPECT_GE(lu.fill_nonzeros(), a.nonzeros());
  const linalg::Vector x = lu.solve(b);

  linalg::LuDecomposition dense(a.to_dense());
  const linalg::Vector x_ref = dense.solve(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-9 * (1.0 + std::abs(x_ref[i])));
  }
}

TEST(SparseLu, RefactorReusesAnalysisAndMatchesFreshFactor) {
  const std::size_t n = 40;
  linalg::CsrMatrix a = random_csr(n, 21);
  linalg::SparseLuFactorization lu;
  lu.factor(a);

  // Perturb values (same pattern), refactor numerically only.
  Rng rng(22);
  for (double& v : a.values()) v += 0.05 * rng.uniform(-1.0, 1.0);
  ASSERT_TRUE(lu.refactor(a));

  const linalg::Vector b = random_vector(n, 23);
  const linalg::Vector x = lu.solve(b);
  linalg::LuDecomposition dense(a.to_dense());
  const linalg::Vector x_ref = dense.solve(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-9 * (1.0 + std::abs(x_ref[i])));
  }
}

TEST(SparseLu, RefactorRejectsDecayedPivot) {
  // Factor with a comfortably dominant (0,0) pivot, then shrink it far
  // below the off-diagonal: the cached pivot order becomes numerically
  // unstable and refactor must refuse it.
  linalg::CsrMatrix a(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  a.values()[a.slot(0, 0)] = 10.0;
  a.values()[a.slot(0, 1)] = 1.0;
  a.values()[a.slot(1, 0)] = 1.0;
  a.values()[a.slot(1, 1)] = 10.0;
  linalg::SparseLuFactorization lu;
  lu.factor(a);

  a.values()[a.slot(0, 0)] = 1e-9;
  a.values()[a.slot(0, 1)] = 1000.0;
  EXPECT_FALSE(lu.refactor(a));

  // A fresh factorization re-pivots and solves fine.
  lu.factor(a);
  const linalg::Vector b{1.0, 2.0};
  const linalg::Vector x = lu.solve(b);
  linalg::LuDecomposition dense(a.to_dense());
  const linalg::Vector x_ref = dense.solve(b);
  EXPECT_NEAR(x[0], x_ref[0], 1e-9 * (1.0 + std::abs(x_ref[0])));
  EXPECT_NEAR(x[1], x_ref[1], 1e-9 * (1.0 + std::abs(x_ref[1])));
}

TEST(SparseLu, RefactorKeepsPivotTinyAgainstItsRowButDominantInItsColumn) {
  // The structural hybrid column read: a KCL pivot (amperes per volt)
  // sits in a row whose largest entry belongs to another unknown (a
  // NEMFET beam velocity), yet it dominates its own column.  Comparing
  // entries of different columns mixes units; the multiplier test does
  // not, so the frozen order stays.
  linalg::CsrMatrix a(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  a.values()[a.slot(0, 0)] = 1.0;
  a.values()[a.slot(0, 1)] = 1.0;
  a.values()[a.slot(1, 0)] = 1e-3;
  a.values()[a.slot(1, 1)] = 1.0;
  linalg::SparseLuFactorization lu;
  lu.factor(a);

  a.values()[a.slot(0, 0)] = 1e-6;
  a.values()[a.slot(0, 1)] = 100.0;  // |pivot| / row max = 1e-8
  a.values()[a.slot(1, 0)] = 1e-9;   // multiplier 1e-3
  ASSERT_TRUE(lu.refactor(a));
  EXPECT_EQ(lu.rejected_row(), linalg::SparseLuFactorization::npos);

  const linalg::Vector b{1.0, 2.0};
  const linalg::Vector x = lu.solve(b);
  linalg::LuDecomposition dense(a.to_dense());
  const linalg::Vector x_ref = dense.solve(b);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-9 * std::abs(x_ref[i]));
  }
}

TEST(SparseLu, RefactorRejectsElementGrowth) {
  // The pivot row [1e-6, 1e-6] is its own row maximum, but eliminating
  // the 1.0 below it takes a 1e6 multiplier and swamps the (1,1) entry.
  linalg::CsrMatrix a(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  a.values()[a.slot(0, 0)] = 1.0;
  a.values()[a.slot(0, 1)] = 1.0;
  a.values()[a.slot(1, 0)] = 1e-3;
  a.values()[a.slot(1, 1)] = 2.0;
  linalg::SparseLuFactorization lu;
  lu.factor(a);

  a.values()[a.slot(0, 0)] = 1e-6;
  a.values()[a.slot(0, 1)] = 1e-6;
  a.values()[a.slot(1, 0)] = 1.0;
  EXPECT_FALSE(lu.refactor(a));
  EXPECT_EQ(lu.rejected_row(), 0u);
}

/// `a` with column `col` multiplied by `s`.
linalg::CsrMatrix scale_column(linalg::CsrMatrix a, std::size_t col,
                               double s) {
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (std::size_t k = a.row_start()[r]; k < a.row_start()[r + 1]; ++k) {
      if (a.col_index()[k] == col) a.values()[k] *= s;
    }
  }
  return a;
}

TEST(SparseLu, RefactorDecisionIsInvariantToColumnScaling) {
  // Factor a random matrix, then refactor it with one diagonal entry
  // decayed by up to six decades.  Scaling a column by a power of two is
  // exact in binary floating point and changes only that unknown's unit,
  // so neither factor()'s pivot order nor refactor()'s verdict may move.
  // Every factorization keeps |L| <= 1/kPivotAlpha and every accepted
  // refactorization |L| <= 1/kRefactorTau.
  using Lu = linalg::SparseLuFactorization;
  const std::size_t n = 24;
  std::size_t accepted = 0, rejected = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const linalg::CsrMatrix a0 = random_csr(n, seed);
    linalg::CsrMatrix a1 = a0;
    Rng rng(1000 + seed);
    const std::size_t decayed = rng.index(n);
    a1.values()[a1.slot(decayed, decayed)] *=
        std::pow(10.0, -rng.uniform(0.0, 6.0));

    Lu lu;
    lu.factor(a0);
    EXPECT_LE(lu.max_multiplier(), 1.0 / Lu::kPivotAlpha);
    const bool verdict = lu.refactor(a1);
    const std::size_t row = lu.rejected_row();
    if (verdict) {
      ++accepted;
      EXPECT_LE(lu.max_multiplier(), 1.0 / Lu::kRefactorTau);
    } else {
      ++rejected;
      EXPECT_LT(row, n);
    }

    for (std::size_t col = 0; col < n; ++col) {
      for (double s : {std::ldexp(1.0, 30), std::ldexp(1.0, -30)}) {
        Lu scaled;
        scaled.factor(scale_column(a0, col, s));
        ASSERT_EQ(scaled.refactor(scale_column(a1, col, s)), verdict)
            << "seed " << seed << " column " << col << " scale " << s;
        EXPECT_EQ(scaled.rejected_row(), row);
      }
    }
  }
  // Both verdicts occur, so the invariance is not vacuous.
  EXPECT_GT(accepted, 5u);
  EXPECT_GT(rejected, 5u);
}

TEST(SparseLu, SingularMatrixThrows) {
  // Column 1 is structurally empty.
  linalg::CsrMatrix a(2, {{0, 0}, {1, 0}});
  a.values()[a.slot(0, 0)] = 1.0;
  a.values()[a.slot(1, 0)] = 2.0;
  linalg::SparseLuFactorization lu;
  EXPECT_THROW(lu.factor(a), SingularMatrixError);
}

TEST(SparseLu, RefactorRejectsForeignPattern) {
  linalg::CsrMatrix a = random_csr(16, 3);
  linalg::CsrMatrix b = random_csr(24, 4);
  linalg::SparseLuFactorization lu;
  lu.factor(a);
  EXPECT_FALSE(lu.refactor(b));
}

// ------------------------------------------------------------ CsrMatrix

TEST(CsrMatrix, SlotLookupAndDuplicateMerge) {
  linalg::CsrMatrix a(3, {{0, 0}, {0, 2}, {0, 0}, {2, 1}});
  EXPECT_EQ(a.nonzeros(), 3u);  // duplicate (0,0) merged
  EXPECT_NE(a.slot(0, 0), linalg::CsrMatrix::npos);
  EXPECT_NE(a.slot(0, 2), linalg::CsrMatrix::npos);
  EXPECT_NE(a.slot(2, 1), linalg::CsrMatrix::npos);
  EXPECT_EQ(a.slot(1, 1), linalg::CsrMatrix::npos);
  EXPECT_EQ(a.slot(0, 1), linalg::CsrMatrix::npos);

  a.values()[a.slot(0, 2)] = 4.0;
  EXPECT_DOUBLE_EQ(a.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
  a.zero_values();
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0.0);
}

// --------------------------------------------- assembly equivalence

/// Asserts dense assemble == sparse assemble (Jacobian, residual, scale)
/// at iterate `x` for the given mode.
void expect_assembly_match(const MnaSystem& system, const linalg::Vector& x,
                           spice::AnalysisMode mode, double time, double dt,
                           double gmin) {
  const std::size_t n = system.num_unknowns();
  linalg::Matrix j_dense;
  linalg::Vector f_dense, s_dense;
  system.assemble(x, j_dense, f_dense, s_dense, mode, time, dt, gmin, 1.0);

  linalg::CsrMatrix j_sparse = system.make_sparse_jacobian();
  linalg::Vector f_sparse, s_sparse;
  ASSERT_TRUE(system.assemble_sparse(x, j_sparse, f_sparse, s_sparse, mode,
                                     time, dt, gmin, 1.0));

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(f_dense[i], f_sparse[i], 1e-18 + 1e-12 * std::abs(f_dense[i]))
        << "residual row " << i;
    EXPECT_NEAR(s_dense[i], s_sparse[i], 1e-18 + 1e-12 * std::abs(s_dense[i]))
        << "scale row " << i;
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_NEAR(j_dense(i, c), j_sparse.at(i, c),
                  1e-18 + 1e-12 * std::abs(j_dense(i, c)))
          << "J(" << i << "," << c << ")";
    }
  }
}

TEST(SparseAssembly, MatchesDenseOnDynamicOr) {
  for (bool hybrid : {false, true}) {
    DynamicOrConfig c;
    c.fanin = 8;
    c.hybrid = hybrid;
    DynamicOrGate gate = core::build_dynamic_or(c);
    MnaSystem system(gate.ckt());

    const linalg::Vector x0 = system.initial_guess();
    expect_assembly_match(system, x0, spice::AnalysisMode::kDcOperatingPoint,
                          0.0, 0.0, 1e-9);

    // At a solved operating point with companion state, transient mode.
    spice::OpResult op = spice::operating_point(system);
    expect_assembly_match(system, op.raw(), spice::AnalysisMode::kTransient,
                          1e-12, 1e-12, 1e-15);
  }
}

// ------------------------------------------- Newton dense vs sparse

spice::NewtonOptions forced(spice::JacobianSolver solver) {
  spice::NewtonOptions options;
  options.solver = solver;
  return options;
}

/// Operating points and a short transient must agree between the dense
/// and sparse solver paths within Newton tolerance slack.  `prepare`
/// runs on each system before solving (e.g. nodesets for bistable cells,
/// without which the OP sits on the metastable point and the transient
/// amplifies solver-path rounding into a state flip).
void expect_solver_equivalence(
    const std::function<Circuit()>& make_circuit,
    const std::vector<std::string>& signals, double tstop,
    const std::function<void(Circuit&, MnaSystem&)>& prepare = {}) {
  // Operating point.
  Circuit ckt_dense = make_circuit();
  Circuit ckt_sparse = make_circuit();
  MnaSystem sys_dense(ckt_dense);
  MnaSystem sys_sparse(ckt_sparse);
  if (prepare) {
    prepare(ckt_dense, sys_dense);
    prepare(ckt_sparse, sys_sparse);
  }

  spice::OpOptions op_dense, op_sparse;
  op_dense.newton = forced(spice::JacobianSolver::kDense);
  op_sparse.newton = forced(spice::JacobianSolver::kSparse);
  spice::OpResult r_dense = spice::operating_point(sys_dense, op_dense);
  spice::OpResult r_sparse = spice::operating_point(sys_sparse, op_sparse);
  for (const std::string& sig : signals) {
    EXPECT_NEAR(r_dense.value(sig), r_sparse.value(sig), 2e-6)
        << "OP mismatch on " << sig;
  }

  if (tstop <= 0.0) return;
  spice::TransientOptions tr_dense, tr_sparse;
  tr_dense.tstop = tstop;
  tr_sparse.tstop = tstop;
  tr_dense.newton = forced(spice::JacobianSolver::kDense);
  tr_sparse.newton = forced(spice::JacobianSolver::kSparse);
  spice::Waveform w_dense = spice::transient(sys_dense, tr_dense);
  spice::Waveform w_sparse = spice::transient(sys_sparse, tr_sparse);

  // The adaptive step controller may pick slightly different step trains
  // (different rounding in the linear solver), so compare on a common
  // time grid via interpolation.
  for (const std::string& sig : signals) {
    double worst = 0.0;
    for (int k = 0; k <= 100; ++k) {
      const double t = tstop * k / 100.0;
      const double vd = w_dense.at(sig, t);
      const double vs = w_sparse.at(sig, t);
      worst = std::max(worst, std::abs(vd - vs));
    }
    EXPECT_LT(worst, 5e-3) << "transient mismatch on " << sig;
  }
}

TEST(SolverEquivalence, DynamicOrFanins) {
  for (int fanin : {4, 8, 16}) {
    auto make = [fanin]() {
      DynamicOrConfig c;
      c.fanin = fanin;
      c.hybrid = (fanin == 8);  // cover both variants across the loop
      DynamicOrGate gate = core::build_dynamic_or(c);
      return std::move(*gate.circuit);
    };
    expect_solver_equivalence(make, {"v(dyn)", "v(out)"}, 1.5e-9);
  }
}

TEST(SolverEquivalence, SramCells) {
  for (core::SramKind kind :
       {core::SramKind::kConventional, core::SramKind::kHybrid}) {
    auto make = [kind]() {
      core::SramConfig c;
      c.kind = kind;
      c.stored_one = false;
      core::SramCell cell = core::build_sram_cell(c);
      return std::move(*cell.circuit);
    };
    // Nodeset the stored state (as core/sram.cpp does) so the OP finds a
    // stable attractor rather than the metastable midpoint.
    auto prepare = [](Circuit& ckt, MnaSystem& system) {
      system.set_nodeset(ckt.find_node(core::SramCell::kQl), 0.0);
      system.set_nodeset(ckt.find_node(core::SramCell::kQr), 1.2);
    };
    expect_solver_equivalence(
        make,
        {std::string("v(") + core::SramCell::kQl + ")",
         std::string("v(") + core::SramCell::kQr + ")"},
        1.0e-9, prepare);
  }
}

TEST(SolverEquivalence, SleepTransistorNetwork) {
  // Footer-gated inverter chain: logic block behind an NMOS sleep switch
  // (paper Section 6), driven through one precharge-style input edge.
  auto make = []() {
    Circuit ckt;
    spice::NodeId vdd = ckt.node("vdd");
    spice::NodeId vgnd = ckt.node("vgnd");
    spice::NodeId in = ckt.node("in");
    spice::NodeId sleep = ckt.node("sleep");
    ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
    ckt.add<VoltageSource>("Vsleep", sleep, ckt.gnd(), SourceWave::dc(1.2));
    ckt.add<VoltageSource>(
        "Vin", in, ckt.gnd(),
        SourceWave::pulse(0.0, 1.2, 0.2e-9, 20e-12, 20e-12, 2e-9));
    core::add_inverter_chain(ckt, "CH", in, vdd, vgnd, 6);
    ckt.add<Mosfet>("Msleep", vgnd, sleep, ckt.gnd(), MosPolarity::kNmos,
                    tech::nmos_90nm(), /*width=*/2e-6, /*length=*/1e-7);
    return ckt;
  };
  expect_solver_equivalence(make, {"v(vgnd)"}, 1.0e-9);
}

TEST(SparseNewton, HybridColumnReadKeepsItsFrozenPivotOrder) {
  // The structural hybrid SRAM column read (ablation_sram_column and the
  // column_read benchmark), at the smallest column on the sparse path.
  // Its v(vdd) KCL pivot is tiny next to a NEMFET beam-velocity entry of
  // the same row but dominates its column.  A row-wise decay test
  // re-pivoted this read 1053 times; the multiplier test re-pivots it
  // once, at the first step, where the bias point's pivot order (the
  // transient shares the bias point's solver) meets the transient
  // equation of a NEMFET beam-velocity row.
  core::SramColumnConfig config;
  config.cell.kind = core::SramKind::kHybrid;
  config.n_cells = 4;
  spice::RunReport report;
  core::measure_column_read_latency_structural(config, 0.1, &report);
  ASSERT_TRUE(report.newton.used_sparse);
  EXPECT_EQ(report.newton.refactor_rejections, 1);
  ASSERT_EQ(report.newton.refactor_rejects.size(), 1u);
  const spice::RefactorRejectRecord& reject =
      report.newton.refactor_rejects.front();
  EXPECT_EQ(reject.time, 1e-13);  // the first step (dt_initial)
  EXPECT_EQ(reject.name.substr(reject.name.size() - 2), ".v") << reject.name;
  EXPECT_EQ(report.newton.factorizations, 2);
  EXPECT_GT(report.newton.factorization_reuses, 1000);
}

// ------------------------------------------- one solver per analysis

/// One hybrid butterfly half-cell as core::measure_butterfly sweeps it:
/// read condition, QL driven by "Vsweep", 121 points over 0..Vdd.
spice::Waveform half_cell_sweep(spice::JacobianSolver solver,
                                spice::RunReport* report) {
  core::SramConfig config;
  config.kind = core::SramKind::kHybrid;
  core::SramBenchMode mode;
  mode.drive_bitlines = true;
  mode.wordline = config.vdd;
  core::SramCell cell = core::build_sram_cell(config, mode);
  Circuit& ckt = cell.ckt();
  auto& sweep = ckt.add<VoltageSource>(
      "Vsweep", ckt.find_node(core::SramCell::kQl), ckt.gnd(),
      SourceWave::dc(0.0));
  MnaSystem system(ckt);
  spice::DcSweepOptions options;
  options.newton = forced(solver);
  options.report = report;
  const std::vector<double> points = spice::linspace(0.0, config.vdd, 121);
  return spice::dc_sweep(
      system, [&](double v) { sweep.set_dc(v); }, points, options);
}

TEST(OneSolverPerAnalysis, DcSweepFactorsOnceAndMatchesTheDenseOracle) {
  spice::RunReport report;
  const spice::Waveform sparse =
      half_cell_sweep(spice::JacobianSolver::kSparse, &report);
  const spice::Waveform dense =
      half_cell_sweep(spice::JacobianSolver::kDense, nullptr);
  // Every point after the first reuses the sweep's symbolic LU: a full
  // factorization happens once, plus once per rejected refactor.
  ASSERT_TRUE(report.newton.used_sparse);
  EXPECT_EQ(report.points, 121u);
  EXPECT_EQ(report.newton.factorizations,
            1 + report.newton.refactor_rejections);
  EXPECT_GT(report.newton.factorization_reuses, 121);
  ASSERT_EQ(sparse.num_samples(), dense.num_samples());
  for (std::size_t s = 0; s < dense.num_signals(); ++s) {
    if (dense.signal_names()[s].rfind("v(", 0) != 0) continue;
    for (std::size_t k = 0; k < dense.num_samples(); ++k) {
      EXPECT_NEAR(sparse.sample(s, k), dense.sample(s, k), 1e-9)
          << dense.signal_names()[s] << " at point " << k;
    }
  }
}

TEST(OneSolverPerAnalysis, TransientSharesTheBiasPointFactorization) {
  // The CMOS 8-input dynamic OR at fan-out 3 (25 unknowns) through one
  // evaluate phase: the stepping refactors on the bias point's pivot
  // order.
  DynamicOrConfig config;
  config.fanin = 8;
  config.fanout = 3;
  DynamicOrGate gate = core::build_dynamic_or(config);
  gate.ckt()
      .find<VoltageSource>(gate.input_source(0))
      .set_wave(SourceWave::pulse(0.0, config.vdd, 1.2e-9, 20e-12, 20e-12,
                                  0.5e-9));
  MnaSystem system(gate.ckt());
  EXPECT_EQ(system.num_unknowns(), 25u);
  spice::RunReport report;
  spice::TransientOptions options;
  options.tstop = 2e-9;
  options.dt_initial = 1e-13;
  options.report = &report;
  spice::transient(system, options);
  EXPECT_TRUE(report.newton.used_sparse);
  EXPECT_GT(report.accepted_steps, 0u);
  EXPECT_EQ(report.newton.refactor_rejections, 0);
  EXPECT_EQ(report.newton.factorizations, 1);
  EXPECT_GT(report.newton.factorization_reuses, 100);
}

// ------------------------------------------------ parallel determinism

TEST(ParallelMap, OrderedResultsAndInlineFallback) {
  auto square = [](std::size_t i) { return static_cast<double>(i * i); };
  const std::vector<double> seq = util::parallel_map(40, square, 1);
  const std::vector<double> par = util::parallel_map(40, square, 4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq[i], static_cast<double>(i * i));
    EXPECT_DOUBLE_EQ(seq[i], par[i]);
  }
  EXPECT_TRUE(util::parallel_map(0, square, 4).empty());
}

TEST(ParallelMap, FirstExceptionPropagates) {
  auto faulty = [](std::size_t i) -> int {
    if (i % 7 == 3) throw InvalidArgument("task " + std::to_string(i));
    return static_cast<int>(i);
  };
  EXPECT_THROW(util::parallel_map(20, faulty, 4), InvalidArgument);
}

Circuit make_divider_inverter() {
  // An inverter biased mid-rail: its output voltage is sensitive to the
  // Vth shifts that the Monte-Carlo draws, which makes thread-count
  // nondeterminism visible immediately.
  Circuit ckt;
  spice::NodeId vdd = ckt.node("vdd");
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vin", in, ckt.gnd(), SourceWave::dc(0.55));
  core::add_inverter(ckt, "INV", in, out, vdd);
  ckt.add<Resistor>("Rload", out, ckt.gnd(), 1e6);
  return ckt;
}

TEST(ParallelDeterminism, MonteCarloIdenticalAcrossThreadCounts) {
  auto metric = [](Circuit& ckt) {
    MnaSystem system(ckt);
    return spice::operating_point(system).value("v(out)");
  };
  variation::MonteCarloOptions mc;
  mc.trials = 16;
  mc.sigma_fraction = 0.06;

  // Parallel Monte-Carlo as callers compose it: one fresh circuit per
  // trial over parallel_map, each drawing from the trial's child stream.
  const Rng root(mc.seed);
  auto trial = [&](std::size_t i) {
    Circuit ckt = make_divider_inverter();
    Rng stream = root.child(i);
    variation::apply_vth_variation(ckt, mc.sigma_fraction, stream);
    return metric(ckt);
  };
  const std::vector<double> seq = util::parallel_map(mc.trials, trial, 1);
  const std::vector<double> par = util::parallel_map(mc.trials, trial, 4);

  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq[i], par[i]) << "trial " << i;
  }

  // And both match the sequential driver on a shared circuit (same
  // per-trial child RNG streams).
  Circuit shared = make_divider_inverter();
  auto reference = variation::monte_carlo(shared, metric, mc);
  ASSERT_EQ(reference.failures, 0u);
  ASSERT_EQ(reference.samples.size(), par.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_DOUBLE_EQ(reference.samples[i], par[i]) << "trial " << i;
  }
}

TEST(ParallelDeterminism, DcSweepParallelMatchesSequentialCold) {
  const std::vector<double> points = spice::linspace(0.0, 1.2, 13);
  auto solve_at = [&](Circuit& ckt, MnaSystem& system, std::size_t i) {
    ckt.find<VoltageSource>("Vin").set_dc(points[i]);
    return spice::operating_point(system).value("v(out)");
  };
  // Parallel sweep as callers compose it: one fresh circuit per point,
  // solved cold, collected in point order.
  auto point = [&](std::size_t i) {
    Circuit ckt = make_divider_inverter();
    MnaSystem system(ckt);
    return solve_at(ckt, system, i);
  };
  const std::vector<double> w1 = util::parallel_map(points.size(), point, 1);
  const std::vector<double> w4 = util::parallel_map(points.size(), point, 4);

  // Sequential reference: cold solves on one shared circuit and system.
  Circuit ckt = make_divider_inverter();
  MnaSystem system(ckt);
  ASSERT_EQ(w1.size(), points.size());
  ASSERT_EQ(w4.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(w1[i], w4[i]) << "vin " << points[i];
    EXPECT_DOUBLE_EQ(w4[i], solve_at(ckt, system, i)) << "vin " << points[i];
  }
}

TEST(ParallelDeterminism, NemfetBranchTableSharedAcrossWorkers) {
  // Every worker builds its own NEMS inverter from one card that no other
  // test uses, so the card's branch table is first built while several
  // threads ask for it.  The shared memo must hand all of them the same
  // table, and the sweep must match the serial run bitwise.
  devices::NemsParams card = tech::nems_90nm();
  card.spring_k = 8.5;
  const std::vector<double> points = spice::linspace(0.0, 1.2, 25);
  std::vector<const devices::NemsBranchTable*> tables(points.size());
  auto make_at = [&](std::size_t i) {
    Circuit ckt;
    spice::NodeId vdd = ckt.node("vdd");
    spice::NodeId in = ckt.node("in");
    spice::NodeId out = ckt.node("out");
    ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
    ckt.add<VoltageSource>("Vin", in, ckt.gnd(), SourceWave::dc(points[i]));
    auto& pd = ckt.add<devices::Nemfet>("XN", out, in, ckt.gnd(),
                                        devices::NemsPolarity::kN, card,
                                        0.3e-6);
    ckt.add<devices::Nemfet>("XP", out, in, vdd, devices::NemsPolarity::kP,
                             card, 0.3e-6);
    ckt.add<Resistor>("Rload", out, ckt.gnd(), 1e6);
    tables[i] = &pd.branch_table();
    return ckt;
  };
  auto solve = [&](std::size_t i) {
    Circuit ckt = make_at(i);
    MnaSystem system(ckt);
    return spice::operating_point(system).value("v(out)");
  };
  const std::vector<double> par = util::parallel_map(points.size(), solve, 4);
  const std::vector<double> seq = util::parallel_map(points.size(), solve, 1);
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(par[i], seq[i]) << "vin " << points[i];
    EXPECT_EQ(tables[i], tables.front());
  }
  EXPECT_GT(par.front(), 1.1);  // input low: pull-up closed
  EXPECT_LT(par.back(), 0.1);   // input high: pull-down closed
}

}  // namespace
}  // namespace nemsim
