// Type-bucketed kernel lanes, the engine's only assembly path: plan
// construction, scatter-map correctness against the unknown table, the
// Jacobian pattern fixed with the plan and the CSR slots resolved against
// it, the declared-cell property every in-tree device must satisfy, lane
// assembly against a per-device Device::stamp reference (the StampSink
// instantiation of the same device models), exact evaluation sharing
// between identical devices held bitwise to that reference (inside
// Newton solves too), and the residual-only passes held bitwise to the
// full passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "nemsim/check/generator.h"
#include "nemsim/core/dynamic_or.h"
#include "nemsim/core/sram.h"
#include "nemsim/devices/controlled.h"
#include "nemsim/devices/diode.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"
#include "nemsim/spice/newton.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/error.h"

namespace nemsim {
namespace {

using devices::Capacitor;
using devices::Mosfet;
using devices::MosPolarity;
using devices::Nemfet;
using devices::NemsPolarity;
using devices::Resistor;
using devices::SourceWave;
using devices::VoltageSource;
using spice::AnalysisMode;
using spice::Circuit;
using spice::KernelLane;
using spice::KernelPlan;
using spice::MnaSystem;
using spice::kKernelAbsent;

/// Hybrid inverter: every nonlinear device family plus passives and a
/// source — one lane per concrete type, no leftovers.
Circuit make_hybrid_inverter() {
  Circuit ckt;
  spice::NodeId vdd = ckt.node("vdd");
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("Vdd", vdd, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>(
      "Vin", in, ckt.gnd(),
      SourceWave::pulse(0.0, 1.2, 0.2e-9, 50e-12, 50e-12, 1.5e-9, 4e-9));
  ckt.add<Mosfet>("MP", out, in, vdd, MosPolarity::kPmos, tech::pmos_90nm(),
                  0.4e-6, 1e-7);
  ckt.add<Nemfet>("XN", out, in, ckt.gnd(), NemsPolarity::kN,
                  tech::nems_90nm(), 1e-6);
  ckt.add<Capacitor>("Cl", out, ckt.gnd(), 2e-15);
  ckt.add<Resistor>("Rl", out, ckt.gnd(), 1e9);
  return ckt;
}

const KernelLane* find_lane(const KernelPlan& plan, const std::string& bucket) {
  for (const KernelLane& lane : plan.lanes) {
    if (lane.bucket == bucket) return &lane;
  }
  return nullptr;
}

// ------------------------------------------------- Device::stamp reference

/// One assembly pass: Jacobian, residual and residual scale.
struct Assembly {
  linalg::Matrix j;
  linalg::Vector f;
  linalg::Vector scale;
};

/// The reference: every device's Device::stamp, in circuit order, into a
/// dense StampContext, plus the engine's gmin shunt on node rows.
Assembly stamp_reference(const MnaSystem& system, const linalg::Vector& x,
                         AnalysisMode mode, double time, double dt,
                         double gmin) {
  const std::size_t n = system.num_unknowns();
  Assembly ref;
  ref.j.reset(n, n);
  ref.f = linalg::Vector(n, 0.0);
  ref.scale = linalg::Vector(n, 0.0);
  spice::StampContext ctx(system, x, ref.j, ref.f, ref.scale);
  ctx.configure(mode, time, dt, gmin, 1.0);
  const Circuit& ckt = system.circuit();
  for (std::size_t i = 0; i < ckt.num_devices(); ++i) {
    ckt.device(i).stamp(ctx);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (system.unknown_info(i).kind == spice::UnknownKind::kNodeVoltage) {
      ref.f[i] += gmin * x[i];
      ref.j(i, i) += gmin;
    }
  }
  return ref;
}

/// Lanes accumulate in bucket order, the reference in circuit order, so
/// entries agree to rounding: a residual row within 1e-10 of its scale
/// (the sum of |contributions|), a Jacobian entry within 1e-10 of its
/// row's largest entry.  A wrong or dropped scatter slot is an O(1)
/// error.
void expect_assembly_matches(const Assembly& ref, const linalg::Matrix& j,
                             const linalg::Vector* f,
                             const std::string& where) {
  const std::size_t n = ref.j.rows();
  ASSERT_EQ(j.rows(), n) << where;
  for (std::size_t r = 0; r < n; ++r) {
    if (f != nullptr) {
      EXPECT_NEAR((*f)[r], ref.f[r], 1e-10 * ref.scale[r] + 1e-300)
          << where << ": residual row " << r;
    }
    double row_max = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      row_max = std::max(row_max, std::abs(ref.j(r, c)));
    }
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_NEAR(j(r, c), ref.j(r, c), 1e-10 * row_max + 1e-300)
          << where << ": J(" << r << ", " << c << ")";
    }
  }
}

/// Compares every lane assembly entry point at one iterate with the
/// Device::stamp reference: dense assemble, assemble_residual, and sparse
/// assembly with and without the linear baseline.
void expect_lanes_match_stamps(const MnaSystem& system,
                               const linalg::Vector& x, AnalysisMode mode,
                               double time, double dt,
                               const std::string& where) {
  const double gmin = 1e-12;
  const Assembly ref = stamp_reference(system, x, mode, time, dt, gmin);

  linalg::Matrix j;
  linalg::Vector f, scale;
  system.assemble(x, j, f, scale, mode, time, dt, gmin, 1.0);
  expect_assembly_matches(ref, j, &f, where + " dense");
  for (std::size_t r = 0; r < f.size(); ++r) {
    EXPECT_NEAR(scale[r], ref.scale[r], 1e-12 * ref.scale[r])
        << where << ": scale row " << r;
  }

  linalg::Vector fr, scale_r;
  system.assemble_residual(x, fr, scale_r, mode, time, dt, gmin, 1.0);
  expect_assembly_matches(ref, j, &fr, where + " residual-only");

  linalg::CsrMatrix csr = system.make_sparse_jacobian();
  ASSERT_TRUE(
      system.assemble_sparse(x, csr, f, scale, mode, time, dt, gmin, 1.0));
  expect_assembly_matches(ref, csr.to_dense(), &f, where + " sparse");

  std::vector<double> baseline;
  ASSERT_TRUE(
      system.assemble_linear_jacobian(x, csr, baseline, mode, time, dt));
  ASSERT_TRUE(system.assemble_sparse(x, csr, f, scale, mode, time, dt, gmin,
                                     1.0, &baseline));
  expect_assembly_matches(ref, csr.to_dense(), &f,
                          where + " sparse+baseline");
}

// ---------------------------------------------------------- lane building

TEST(KernelPlan, BucketsEveryInTreeDeviceType) {
  Circuit ckt = make_hybrid_inverter();
  MnaSystem system(ckt);
  const KernelPlan& plan = system.kernel_plan();

  // Every in-tree device type has a descriptor: nothing falls through to
  // the per-device Device::stamp path.
  EXPECT_TRUE(plan.leftover_linear.empty());
  EXPECT_TRUE(plan.leftover_nonlinear.empty());

  const KernelLane* vsource = find_lane(plan, "vsource");
  ASSERT_NE(vsource, nullptr);
  EXPECT_EQ(vsource->devices.size(), 2u);
  EXPECT_TRUE(vsource->linear);

  const KernelLane* mosfet = find_lane(plan, "mosfet");
  ASSERT_NE(mosfet, nullptr);
  EXPECT_EQ(mosfet->devices.size(), 1u);
  EXPECT_FALSE(mosfet->linear);

  const KernelLane* nemfet = find_lane(plan, "nemfet");
  ASSERT_NE(nemfet, nullptr);
  EXPECT_EQ(nemfet->roles, 5);

  EXPECT_NE(find_lane(plan, "capacitor"), nullptr);
  EXPECT_NE(find_lane(plan, "resistor"), nullptr);

  // Lane membership covers the whole device list exactly once.
  std::size_t lane_devices = 0;
  for (const KernelLane& lane : plan.lanes) lane_devices += lane.devices.size();
  EXPECT_EQ(lane_devices, 6u);
}

TEST(KernelPlan, ScatterMapMatchesUnknownTable) {
  // Divider: V1 drives "in"; R1 in-out, R2 out-gnd.  Known unknown
  // bindings make the rows and dense slot offsets directly checkable.
  Circuit ckt;
  spice::NodeId in = ckt.node("in");
  spice::NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, ckt.gnd(), SourceWave::dc(1.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Resistor>("R2", out, ckt.gnd(), 2e3);
  MnaSystem system(ckt);
  const KernelPlan& plan = system.kernel_plan();
  const std::size_t n = system.num_unknowns();

  const std::size_t u_in = system.unknown_of(in).index;
  const std::size_t u_out = system.unknown_of(out).index;

  const KernelLane* lane = find_lane(plan, "resistor");
  ASSERT_NE(lane, nullptr);
  ASSERT_EQ(lane->devices.size(), 2u);
  ASSERT_EQ(lane->roles, 2);

  // Device order within a lane is circuit registration order.
  EXPECT_EQ(lane->devices[0]->name(), "R1");
  EXPECT_EQ(lane->devices[1]->name(), "R2");

  // R1 rows: role 0 = in, role 1 = out.
  EXPECT_EQ(lane->rows[0], u_in);
  EXPECT_EQ(lane->rows[1], u_out);
  // R2 rows: role 0 = out, role 1 = ground (absent).
  EXPECT_EQ(lane->rows[2], u_out);
  EXPECT_EQ(lane->rows[3], kKernelAbsent);

  // Dense slots are row-major offsets; cells touching ground are absent.
  const std::size_t rr = 4;  // roles * roles
  EXPECT_EQ(lane->dense_slots[0 * rr + 0], u_in * n + u_in);
  EXPECT_EQ(lane->dense_slots[0 * rr + 1], u_in * n + u_out);
  EXPECT_EQ(lane->dense_slots[0 * rr + 2], u_out * n + u_in);
  EXPECT_EQ(lane->dense_slots[0 * rr + 3], u_out * n + u_out);
  EXPECT_EQ(lane->dense_slots[1 * rr + 0], u_out * n + u_out);
  EXPECT_EQ(lane->dense_slots[1 * rr + 1], kKernelAbsent);
  EXPECT_EQ(lane->dense_slots[1 * rr + 2], kKernelAbsent);
  EXPECT_EQ(lane->dense_slots[1 * rr + 3], kKernelAbsent);
}

TEST(KernelPlan, SparseSlotsResolveAgainstTheFixedPattern) {
  // The plan resolves every declared cell's CSR slot and every diagonal
  // slot once, against the pattern it fixes.  A sparse solve leaves the
  // pattern and the slot tables as they were.
  Circuit ckt = make_hybrid_inverter();
  MnaSystem system(ckt);
  const KernelPlan& plan = system.kernel_plan();
  const linalg::CsrMatrix skeleton = system.make_sparse_jacobian();
  std::vector<std::vector<std::size_t>> slots;
  for (const KernelLane& lane : plan.lanes) {
    SCOPED_TRACE(lane.bucket);
    for (std::size_t cell = 0; cell < lane.rowcol.size(); ++cell) {
      const auto& [row, col] = lane.rowcol[cell];
      if (row == kKernelAbsent) {
        EXPECT_EQ(lane.sparse_slots[cell], kKernelAbsent);
        continue;
      }
      EXPECT_NE(lane.sparse_slots[cell], linalg::CsrMatrix::npos);
      EXPECT_EQ(lane.sparse_slots[cell], skeleton.slot(row, col));
    }
    slots.push_back(lane.sparse_slots);
  }
  ASSERT_EQ(plan.diagonal_slots.size(), system.num_unknowns());
  for (std::size_t i = 0; i < system.num_unknowns(); ++i) {
    EXPECT_NE(plan.diagonal_slots[i], linalg::CsrMatrix::npos);
    EXPECT_EQ(plan.diagonal_slots[i], skeleton.slot(i, i));
  }

  spice::OpOptions sparse;
  sparse.newton.solver = spice::JacobianSolver::kSparse;
  (void)spice::operating_point(system, sparse);
  const linalg::CsrMatrix after = system.make_sparse_jacobian();
  EXPECT_EQ(after.row_start(), skeleton.row_start());
  EXPECT_EQ(after.col_index(), skeleton.col_index());
  ASSERT_EQ(plan.lanes.size(), slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(plan.lanes[i].sparse_slots, slots[i]) << plan.lanes[i].bucket;
  }
}

// ------------------------------------------------ the fixed Jacobian pattern

/// With only in-tree devices (no leftovers) the solver's pattern is
/// exactly the plan's declared cells plus the full diagonal, and it
/// contains the structural pattern of both analysis modes: every cell a
/// Device::stamp pass writes at the cold-start iterate.
void expect_pattern_is_declared_plus_diagonal(const MnaSystem& system,
                                              const std::string& where) {
  const KernelPlan& plan = system.kernel_plan();
  EXPECT_TRUE(plan.leftover_linear.empty()) << where;
  EXPECT_TRUE(plan.leftover_nonlinear.empty()) << where;
  const std::size_t n = system.num_unknowns();
  std::set<std::pair<std::size_t, std::size_t>> want(
      plan.declared_cells.begin(), plan.declared_cells.end());
  for (std::size_t i = 0; i < n; ++i) want.emplace(i, i);
  const linalg::CsrMatrix skeleton = system.make_sparse_jacobian();
  ASSERT_EQ(skeleton.size(), n) << where;
  std::set<std::pair<std::size_t, std::size_t>> got;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = skeleton.row_start()[r];
         k < skeleton.row_start()[r + 1]; ++k) {
      got.emplace(r, skeleton.col_index()[k]);
    }
  }
  EXPECT_EQ(got.size(), want.size()) << where;
  EXPECT_TRUE(got == want) << where;
  for (const AnalysisMode mode :
       {AnalysisMode::kDcOperatingPoint, AnalysisMode::kTransient}) {
    std::size_t outside = 0;
    for (const auto& [row, col] : system.structural_pattern(mode)) {
      if (skeleton.slot(row, col) != linalg::CsrMatrix::npos) continue;
      if (++outside <= 3) {
        ADD_FAILURE() << where << ": stamped cell ("
                      << system.unknown_info(row).name << ", "
                      << system.unknown_info(col).name
                      << ") is outside the pattern";
      }
    }
    EXPECT_EQ(outside, 0u) << where;
  }
}

TEST(FixedPattern, IsDeclaredCellsPlusDiagonal) {
  {
    core::SramColumnConfig config;
    config.cell.kind = core::SramKind::kHybrid;
    config.n_cells = 16;
    config.active_cell = 5;
    core::SramColumn column = core::build_sram_column(config);
    MnaSystem system(column.ckt());
    core::nodeset_column_state(system, column);
    expect_pattern_is_declared_plus_diagonal(system, "16-cell hybrid column");
  }
  {
    core::DynamicOrConfig config;
    config.fanin = 8;
    config.hybrid = true;
    core::DynamicOrGate gate = core::build_dynamic_or(config);
    MnaSystem system(gate.ckt());
    expect_pattern_is_declared_plus_diagonal(system, "hybrid 8-input OR");
  }
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Circuit ckt = check::generate_circuit(seed);
    MnaSystem system(ckt);
    expect_pattern_is_declared_plus_diagonal(system,
                                             "seed " + std::to_string(seed));
  }
}

/// Has no kernel descriptor, so the plan stamps it through Device::stamp
/// as a leftover: a conductance from `a` to ground, and once `wander` is
/// set (after the pattern was recorded) also the (a, b) cell.
class WanderingStamp final : public spice::Device {
 public:
  WanderingStamp(std::string name, spice::NodeId a, spice::NodeId b)
      : Device(std::move(name)), a_(a), b_(b) {}

  void stamp(spice::StampContext& ctx) const override {
    ctx.add_f(a_, 1e-3 * ctx.v(a_));
    ctx.add_J(a_, a_, 1e-3);
    if (wander) ctx.add_J(a_, b_, 1e-3);
  }

  bool wander = false;

 private:
  spice::NodeId a_;
  spice::NodeId b_;
};

TEST(FixedPattern, LeftoverWriteOutsideItsRecordedCellsThrows) {
  Circuit ckt;
  const spice::NodeId a = ckt.node("a");
  const spice::NodeId b = ckt.node("b");
  ckt.add<Resistor>("Ra", a, ckt.gnd(), 1e3);
  ckt.add<Resistor>("Rb", b, ckt.gnd(), 1e3);
  WanderingStamp& device = ckt.add<WanderingStamp>("Y", a, b);
  MnaSystem system(ckt);
  ASSERT_EQ(system.kernel_plan().leftover_nonlinear.size(), 1u);
  linalg::CsrMatrix csr = system.make_sparse_jacobian();
  const std::size_t ua = system.unknown_of(a).index;
  const std::size_t ub = system.unknown_of(b).index;
  EXPECT_EQ(csr.slot(ua, ub), linalg::CsrMatrix::npos);

  const linalg::Vector x(system.num_unknowns(), 0.1);
  linalg::Vector f, scale;
  const AnalysisMode dc = AnalysisMode::kDcOperatingPoint;
  EXPECT_TRUE(system.assemble_sparse(x, csr, f, scale, dc, 0.0, 0.0, 0.0,
                                     1.0));
  EXPECT_DOUBLE_EQ(csr.at(ua, ua), 1e-3 + 1e-3);

  device.wander = true;
  try {
    system.assemble_sparse(x, csr, f, scale, dc, 0.0, 0.0, 0.0, 1.0);
    ADD_FAILURE() << "a write outside the pattern did not throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v(a)"), std::string::npos) << what;
    EXPECT_NE(what.find("v(b)"), std::string::npos) << what;
  }
  // The dense oracle has no pattern to leave.
  linalg::Matrix j;
  system.assemble(x, j, f, scale, dc, 0.0, 0.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(j(ua, ub), 1e-3);
}

TEST(FixedPattern, ForeignSkeletonThrows) {
  Circuit ckt = make_hybrid_inverter();
  MnaSystem system(ckt);
  const std::size_t n = system.num_unknowns();
  const linalg::Vector x = system.initial_guess();
  linalg::Vector f, scale;
  std::vector<double> baseline;
  const AnalysisMode dc = AnalysisMode::kDcOperatingPoint;

  // Another system's skeleton (another size), and a diagonal-only one of
  // the right size.
  Circuit other;
  other.add<Resistor>("R", other.node("a"), other.gnd(), 1e3);
  const MnaSystem other_system(other);
  std::vector<std::pair<std::size_t, std::size_t>> diagonal;
  for (std::size_t i = 0; i < n; ++i) diagonal.emplace_back(i, i);
  for (linalg::CsrMatrix foreign :
       {other_system.make_sparse_jacobian(), linalg::CsrMatrix(n, diagonal)}) {
    SCOPED_TRACE(foreign.size());
    EXPECT_THROW(system.assemble_sparse(x, foreign, f, scale, dc, 0.0, 0.0,
                                        0.0, 1.0),
                 InvalidArgument);
    EXPECT_THROW(system.assemble_linear_jacobian(x, foreign, baseline, dc,
                                                 0.0, 0.0),
                 InvalidArgument);
  }
  linalg::CsrMatrix own = system.make_sparse_jacobian();
  EXPECT_TRUE(
      system.assemble_sparse(x, own, f, scale, dc, 0.0, 0.0, 0.0, 1.0));
}

// ------------------------------------------------- declared-cell property

/// Adds one device of the type under test across the distinct nodes
/// a, b, c, d.
using DeviceFactory = std::function<void(Circuit&, spice::NodeId a,
                                         spice::NodeId b, spice::NodeId c,
                                         spice::NodeId d)>;

struct DeviceCase {
  const char* label;
  DeviceFactory add;
};

std::vector<DeviceCase> in_tree_device_cases() {
  using spice::NodeId;
  return {
      {"resistor",
       [](Circuit& k, NodeId a, NodeId b, NodeId, NodeId) {
         k.add<Resistor>("R", a, b, 1e3);
       }},
      {"capacitor",
       [](Circuit& k, NodeId a, NodeId b, NodeId, NodeId) {
         k.add<Capacitor>("C", a, b, 1e-15);
       }},
      {"inductor",
       [](Circuit& k, NodeId a, NodeId b, NodeId, NodeId) {
         k.add<devices::Inductor>("L", a, b, 1e-9);
       }},
      {"vsource",
       [](Circuit& k, NodeId a, NodeId b, NodeId, NodeId) {
         k.add<VoltageSource>("V", a, b, SourceWave::dc(0.7));
       }},
      {"isource",
       [](Circuit& k, NodeId a, NodeId b, NodeId, NodeId) {
         k.add<devices::CurrentSource>("I", a, b, SourceWave::dc(1e-6));
       }},
      {"vcvs",
       [](Circuit& k, NodeId a, NodeId b, NodeId c, NodeId d) {
         k.add<devices::Vcvs>("E", a, b, c, d, 2.0);
       }},
      {"vccs",
       [](Circuit& k, NodeId a, NodeId b, NodeId c, NodeId d) {
         k.add<devices::Vccs>("G", a, b, c, d, 1e-3);
       }},
      {"diode",
       [](Circuit& k, NodeId a, NodeId b, NodeId, NodeId) {
         k.add<devices::Diode>("D", a, b, devices::DiodeParams{});
       }},
      {"nmos",
       [](Circuit& k, NodeId a, NodeId b, NodeId c, NodeId) {
         k.add<Mosfet>("M", a, b, c, MosPolarity::kNmos, tech::nmos_90nm(),
                       0.3e-6, 1e-7);
       }},
      {"pmos",
       [](Circuit& k, NodeId a, NodeId b, NodeId c, NodeId) {
         k.add<Mosfet>("M", a, b, c, MosPolarity::kPmos, tech::pmos_90nm(),
                       0.6e-6, 1e-7);
       }},
      {"nemfet-n",
       [](Circuit& k, NodeId a, NodeId b, NodeId c, NodeId) {
         k.add<Nemfet>("X", a, b, c, NemsPolarity::kN, tech::nems_90nm(),
                       1e-6);
       }},
      {"nemfet-p",
       [](Circuit& k, NodeId a, NodeId b, NodeId c, NodeId) {
         k.add<Nemfet>("X", a, b, c, NemsPolarity::kP, tech::nems_90nm(),
                       1e-6);
       }},
  };
}

TEST(KernelDeclaredCells, EveryWrittenCellIsDeclared) {
  // KernelSink drops writes to cells the descriptor did not declare, so
  // a missing add_j would be a silently wrong Jacobian.  Run each in-tree
  // device's eval through the recording sink (Device::stamp into a
  // pattern-recording StampContext) over sampled iterates — both
  // source/drain orientations, both polarities, DC and transient, both
  // companion integrators — and require every written (eq, var) cell to
  // be among the declared ones.
  for (const DeviceCase& dc : in_tree_device_cases()) {
    SCOPED_TRACE(dc.label);
    Circuit ckt;
    dc.add(ckt, ckt.node("a"), ckt.node("b"), ckt.node("c"), ckt.node("d"));
    MnaSystem system(ckt);
    const spice::Device& device = ckt.device(0);

    spice::KernelDescriptor desc;
    device.kernel_descriptor(spice::KernelLayout(system), desc);
    ASSERT_TRUE(desc.supported);
    ASSERT_EQ(desc.role_unknowns.size(), static_cast<std::size_t>(desc.roles));
    std::set<std::pair<std::size_t, std::size_t>> declared;
    for (const auto& [er, vr] : desc.j_positions) {
      declared.emplace(desc.role_unknowns[er].index,
                       desc.role_unknowns[vr].index);
    }

    const std::size_t n = system.num_unknowns();
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> volts(-1.5, 1.5);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    bool forward = false, reverse = false;
    for (int sample = 0; sample < 48; ++sample) {
      linalg::Vector x(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const spice::UnknownInfo& info = system.unknown_info(i);
        if (info.kind == spice::UnknownKind::kInternal &&
            info.name.size() > 2 &&
            info.name.compare(info.name.size() - 2, 2, ".x") == 0) {
          x[i] = unit(rng) * tech::nems_90nm().gap0;  // beam position
        } else {
          x[i] = volts(rng);
        }
      }
      // Unknowns 0 and 2 are nodes a and c: the drain and source of the
      // FETs.
      (x[0] > x[2] ? forward : reverse) = true;
      if (sample == 24) {
        // Commit a transient step so the companions switch from the
        // backward-Euler restart to trapezoidal.
        system.accept(x, AnalysisMode::kTransient, 1e-12, 1e-12);
      }
      for (AnalysisMode mode :
           {AnalysisMode::kDcOperatingPoint, AnalysisMode::kTransient}) {
        std::vector<std::pair<std::size_t, std::size_t>> written;
        linalg::Vector f(n, 0.0), scale(n, 0.0);
        spice::StampContext ctx(system, x, /*jacobian=*/nullptr, f, scale);
        ctx.record_pattern(written);
        const bool tran = mode == AnalysisMode::kTransient;
        ctx.configure(mode, tran ? 2e-12 : 0.0, tran ? 1e-12 : 0.0, 0.0, 1.0);
        device.stamp(ctx);
        for (const auto& cell : written) {
          EXPECT_TRUE(declared.count(cell))
              << system.unknown_info(cell.first).name << " row, "
              << system.unknown_info(cell.second).name << " column ("
              << (tran ? "transient" : "dc") << ") is written but not "
              << "declared";
        }
      }
    }
    EXPECT_TRUE(forward && reverse);
  }
}

// ------------------------------------- lanes vs the Device::stamp reference

TEST(KernelAssembly, LanesMatchDeviceStampsOnGeneratedCircuits) {
  // The lanes and Device::stamp run the same eval; what differs is the
  // scatter: frozen role-to-slot maps (dense offsets, CSR slots, the
  // linear baseline) against add_f/add_J.  Check every assembly entry
  // point on the differential checker's generated circuits, at the OP
  // and at a perturbed iterate, in both analysis modes.
  int solved = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Circuit ckt = check::generate_circuit(seed);
    MnaSystem system(ckt);
    linalg::Vector x_op;
    try {
      x_op = spice::operating_point(system).raw();
    } catch (const std::exception&) {
      continue;
    }
    ++solved;
    linalg::Vector x_pert = x_op;
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> jitter(-1.0, 1.0);
    for (std::size_t i = 0; i < x_pert.size(); ++i) {
      x_pert[i] += system.unknown_info(i).kind ==
                           spice::UnknownKind::kNodeVoltage
                       ? 0.1 * jitter(rng)
                       : 0.01 * jitter(rng) * std::abs(x_pert[i]);
    }
    for (const auto& [x, label] :
         {std::pair{&x_op, "op"}, std::pair{&x_pert, "perturbed"}}) {
      expect_lanes_match_stamps(system, *x, AnalysisMode::kDcOperatingPoint,
                                0.0, 0.0, std::string(label) + " dc");
      expect_lanes_match_stamps(system, *x, AnalysisMode::kTransient, 1e-11,
                                1e-12, std::string(label) + " transient");
    }
  }
  EXPECT_GE(solved, 45);
}

TEST(KernelContract, OperatingPointMatchesDeviceStamps) {
  // The lane-assembled operating point is an operating point of the
  // Device::stamp model too: at the converged x the two assemblies agree
  // entry by entry, on both Jacobian sinks.
  for (spice::JacobianSolver solver :
       {spice::JacobianSolver::kDense, spice::JacobianSolver::kSparse}) {
    SCOPED_TRACE(solver == spice::JacobianSolver::kDense ? "dense" : "sparse");
    Circuit ckt = make_hybrid_inverter();
    MnaSystem system(ckt);
    spice::OpOptions opts;
    opts.newton.solver = solver;
    const spice::OpResult op = spice::operating_point(system, opts);
    expect_lanes_match_stamps(system, op.raw(),
                              AnalysisMode::kDcOperatingPoint, 0.0, 0.0,
                              "op");
  }
}

TEST(KernelContract, TransientMatchesDeviceStampsAndCountsLanes) {
  spice::RunReport report;
  Circuit ckt = make_hybrid_inverter();
  MnaSystem system(ckt);
  spice::TransientOptions o;
  o.tstop = 1.5e-9;
  o.dt_initial = 1e-13;
  o.report = &report;
  const spice::Waveform wave = spice::transient(system, o);
  const spice::NewtonStats& stats = report.newton;
  // The devices hold the last accepted step's history: the transient
  // assembly after it agrees with the Device::stamp reference.
  linalg::Vector x_end(system.num_unknowns(), 0.0);
  for (std::size_t i = 0; i < x_end.size(); ++i) {
    x_end[i] = wave.at(system.unknown_info(i).name, o.tstop);
  }
  expect_lanes_match_stamps(system, x_end, AnalysisMode::kTransient, 1.6e-9,
                            1e-11, "transient");

  // Per-bucket counters (bias point and stepping) cover the nonlinear
  // lanes only; linear lanes are not model evaluations.
  for (const char* bucket : {"mosfet", "nemfet"}) {
    const auto it = std::find_if(
        stats.kernel_lane_evals.begin(), stats.kernel_lane_evals.end(),
        [&](const auto& e) { return e.first == bucket; });
    ASSERT_NE(it, stats.kernel_lane_evals.end()) << bucket;
    EXPECT_GT(it->second, 0u) << bucket;
  }
  for (const auto& [bucket, count] : stats.kernel_lane_evals) {
    EXPECT_TRUE(bucket == "mosfet" || bucket == "nemfet") << bucket;
  }

  // nonlinear_evals counts one model evaluation per nonlinear device
  // (MP, XN) per Newton assembly pass, full or residual-only.
  EXPECT_GT(stats.nonlinear_evals, 0);
  EXPECT_EQ(stats.nonlinear_evals,
            2 * (stats.assembles + stats.residual_assembles));
}

TEST(KernelCounters, LaneEvalsSumToNonlinearEvals) {
  // perfbench divides the lane counts by nonlinear_evals: on a circuit of
  // in-tree devices every nonlinear evaluation is a lane evaluation, on
  // both Jacobian sinks and through the transient's bias point and its
  // steps alike.
  for (spice::JacobianSolver solver :
       {spice::JacobianSolver::kDense, spice::JacobianSolver::kSparse}) {
    SCOPED_TRACE(solver == spice::JacobianSolver::kDense ? "dense" : "sparse");
    core::DynamicOrConfig c;
    c.fanin = 4;
    c.hybrid = true;
    core::DynamicOrGate gate = core::build_dynamic_or(c);
    MnaSystem system(gate.ckt());
    spice::RunReport report;
    spice::TransientOptions o;
    o.tstop = 0.5e-9;
    o.newton.solver = solver;
    o.report = &report;
    (void)spice::transient(system, o);
    const spice::NewtonStats& stats = report.newton;

    std::uint64_t lane_evals = 0;
    for (const auto& [bucket, count] : stats.kernel_lane_evals) {
      lane_evals += count;
    }
    EXPECT_GT(stats.nonlinear_evals, 0);
    EXPECT_EQ(lane_evals, static_cast<std::uint64_t>(stats.nonlinear_evals));
  }
}

// ------------------------------- exact evaluation sharing (DESIGN.md §7k)

/// Device::stamp of the linear or the nonlinear devices, in the order
/// the lanes accumulate in: lanes, then leftovers.
void stamp_lane_devices(const MnaSystem& system, spice::StampContext& ctx,
                        bool linear) {
  const KernelPlan& plan = system.kernel_plan();
  const Circuit& ckt = system.circuit();
  for (const KernelLane& lane : plan.lanes) {
    if (lane.linear != linear) continue;
    for (std::size_t di : lane.device_indices) ckt.device(di).stamp(ctx);
  }
  for (std::size_t di :
       linear ? plan.leftover_linear : plan.leftover_nonlinear) {
    ckt.device(di).stamp(ctx);
  }
}

/// Device::stamp of every device in the order the lanes accumulate in:
/// linear lanes, linear leftovers, nonlinear lanes, nonlinear leftovers.
/// Same values, same order, so the lanes must agree bit for bit.
void stamp_in_lane_order(const MnaSystem& system, spice::StampContext& ctx) {
  stamp_lane_devices(system, ctx, /*linear=*/true);
  stamp_lane_devices(system, ctx, /*linear=*/false);
}

void expect_bitwise(const double* got, const double* want, std::size_t count,
                    const std::string& where) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << where << ": entry " << i << " is " << got[i]
                      << ", the reference " << want[i];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << where;
}

std::uint64_t total_twin_replays(const MnaSystem& system) {
  std::uint64_t replays = 0;
  for (const KernelLane& lane : system.kernel_plan().lanes) {
    replays += lane.twin_replays;
  }
  return replays;
}

/// Every lane assembly entry point at iterate `x` (dense, residual-only,
/// CSR, and CSR on a fresh system over the same devices) against the
/// lane-ordered Device::stamp reference, bit for bit.  Returns the twin
/// replays the lane passes made.
std::uint64_t expect_sharing_matches_stamps(Circuit& ckt, MnaSystem& system,
                                            const linalg::Vector& x,
                                            AnalysisMode mode, double time,
                                            double dt,
                                            const std::string& where) {
  const double gmin = 1e-12;
  const std::size_t n = system.num_unknowns();
  const std::uint64_t replays_before = total_twin_replays(system);
  auto add_gmin = [&](linalg::Vector& f, auto&& diagonal) {
    for (std::size_t i = 0; i < n; ++i) {
      if (system.unknown_info(i).kind == spice::UnknownKind::kNodeVoltage) {
        f[i] += gmin * x[i];
        diagonal(i) += gmin;
      }
    }
  };

  // Dense reference and lanes.
  Assembly ref;
  ref.j.reset(n, n);
  ref.f = linalg::Vector(n, 0.0);
  ref.scale = linalg::Vector(n, 0.0);
  {
    spice::StampContext ctx(system, x, ref.j, ref.f, ref.scale);
    ctx.configure(mode, time, dt, gmin, 1.0);
    stamp_in_lane_order(system, ctx);
    add_gmin(ref.f, [&](std::size_t i) -> double& { return ref.j(i, i); });
  }
  linalg::Matrix j;
  linalg::Vector f, scale;
  system.assemble(x, j, f, scale, mode, time, dt, gmin, 1.0);
  expect_bitwise(j.data(), ref.j.data(), n * n, where + " dense J");
  expect_bitwise(f.data(), ref.f.data(), n, where + " dense f");
  expect_bitwise(scale.data(), ref.scale.data(), n, where + " dense scale");
  system.assemble_residual(x, f, scale, mode, time, dt, gmin, 1.0);
  expect_bitwise(f.data(), ref.f.data(), n, where + " residual-only f");
  expect_bitwise(scale.data(), ref.scale.data(), n,
                 where + " residual-only scale");

  // CSR reference and lanes on the same skeleton.
  linalg::CsrMatrix csr = system.make_sparse_jacobian();
  EXPECT_TRUE(
      system.assemble_sparse(x, csr, f, scale, mode, time, dt, gmin, 1.0))
      << where;
  linalg::CsrMatrix ref_csr = system.make_sparse_jacobian();
  linalg::Vector ref_f(n, 0.0), ref_scale(n, 0.0);
  {
    spice::StampContext ctx(system, x, &ref_csr, ref_f, ref_scale);
    ctx.configure(mode, time, dt, gmin, 1.0);
    stamp_in_lane_order(system, ctx);
    add_gmin(ref_f, [&](std::size_t i) -> double& {
      return ref_csr.values()[ref_csr.slot(i, i)];
    });
  }
  const std::size_t nnz = ref_csr.values().size();
  EXPECT_EQ(csr.values().size(), nnz) << where;
  if (csr.values().size() != nnz) return 0;
  expect_bitwise(csr.values().data(), ref_csr.values().data(), nnz,
                 where + " CSR J");
  expect_bitwise(f.data(), ref_f.data(), n, where + " CSR f");
  expect_bitwise(scale.data(), ref_scale.data(), n, where + " CSR scale");

  // A fresh system over the same devices, whose plan groups its classes
  // from their current state, on its own skeleton.
  std::uint64_t fresh_replays = 0;
  {
    MnaSystem fresh(ckt);
    linalg::CsrMatrix fresh_csr = fresh.make_sparse_jacobian();
    EXPECT_TRUE(fresh.assemble_sparse(x, fresh_csr, f, scale, mode, time, dt,
                                      gmin, 1.0))
        << where;
    EXPECT_EQ(fresh_csr.values().size(), nnz) << where;
    if (fresh_csr.values().size() == nnz) {
      expect_bitwise(fresh_csr.values().data(), ref_csr.values().data(), nnz,
                     where + " fresh-system J");
    }
    expect_bitwise(f.data(), ref_f.data(), n, where + " fresh-system f");
    expect_bitwise(scale.data(), ref_scale.data(), n,
                   where + " fresh-system scale");
    fresh_replays = total_twin_replays(fresh);
  }
  return total_twin_replays(system) - replays_before + fresh_replays;
}

/// Runs the bias point and `checkpoints.back()` fixed-dt transient steps
/// by hand (NewtonSolver + accept, as the transient driver does), and
/// holds the lanes to the reference after the bias point and after each
/// checkpoint's count of accepted steps — by then the devices carry
/// non-trivial companion and beam state.  `perturb` names unknowns (by
/// prefix) nudged in a second iterate per check, which splits their
/// devices from the classes' other members.
void expect_sharing_through_a_transient(Circuit& ckt, MnaSystem& system,
                                        double dt,
                                        const std::string& perturb) {
  const std::vector<int> checkpoints = {1, 10, 100};
  spice::NewtonSolver newton(system, spice::NewtonOptions{});
  linalg::Vector x = newton.solve(system.initial_guess(),
                                  AnalysisMode::kDcOperatingPoint, 0.0, 0.0);
  system.accept(x, AnalysisMode::kDcOperatingPoint, 0.0, 0.0);

  auto check = [&](AnalysisMode mode, double time, const std::string& where) {
    EXPECT_GT(expect_sharing_matches_stamps(ckt, system, x, mode, time, dt,
                                            where),
              0u)
        << where << ": no evaluation was shared";
    linalg::Vector nudged = x;
    for (std::size_t i = 0; i < nudged.size(); ++i) {
      if (system.unknown_info(i).name.find(perturb) != std::string::npos) {
        nudged[i] += 1e-3 * (1.0 + std::abs(nudged[i]));
      }
    }
    expect_sharing_matches_stamps(ckt, system, nudged, mode, time, dt,
                                  where + " nudged");
  };
  check(AnalysisMode::kDcOperatingPoint, 0.0, "op dc");
  check(AnalysisMode::kTransient, dt, "op transient");

  double t = 0.0;
  for (int step = 1; step <= checkpoints.back(); ++step) {
    t += dt;
    x = newton.solve(x, AnalysisMode::kTransient, t, dt);
    system.accept(x, AnalysisMode::kTransient, t, dt);
    if (std::find(checkpoints.begin(), checkpoints.end(), step) !=
        checkpoints.end()) {
      check(AnalysisMode::kTransient, t + dt,
            "after " + std::to_string(step) + " steps");
    }
  }
}

TEST(KernelTwins, SixteenCellColumnsMatchDeviceStampsBitwise) {
  // The idle cells of a structural column are bitwise identical, so
  // their devices replay one recorded evaluation; the accessed cell's
  // devices diverge once the wordline rises.
  for (core::SramKind kind :
       {core::SramKind::kHybrid, core::SramKind::kConventional}) {
    SCOPED_TRACE(core::sram_kind_name(kind));
    core::SramColumnConfig config;
    config.cell.kind = kind;
    config.n_cells = 16;
    config.active_cell = 5;
    core::SramColumn column = core::build_sram_column(config);
    column.ckt().find<VoltageSource>("Vwl").set_wave(
        SourceWave::pulse(0.0, config.cell.vdd, 20e-12, 20e-12, 20e-12, 1.0));
    MnaSystem system(column.ckt());
    core::nodeset_column_state(system, column);
    system.set_nodeset(column.ckt().find_node("bl"), config.cell.vdd);
    system.set_nodeset(column.ckt().find_node("blb"), config.cell.vdd);
    expect_sharing_through_a_transient(column.ckt(), system, 2e-12,
                                       "Xcell11.");
  }
}

TEST(KernelTwins, DynamicOrIdleLegsMatchDeviceStampsBitwise) {
  // Unvaried 8-input gate: input 0 switches, the seven idle legs share.
  for (const bool hybrid : {true, false}) {
    SCOPED_TRACE(hybrid ? "hybrid" : "cmos");
    core::DynamicOrConfig config;
    config.hybrid = hybrid;
    config.t_precharge = 0.2e-9;
    core::DynamicOrGate gate = core::build_dynamic_or(config);
    gate.ckt().find<VoltageSource>(gate.input_source(0))
        .set_wave(SourceWave::pulse(0.0, config.vdd, 0.3e-9, 20e-12, 20e-12,
                                    1.0));
    MnaSystem system(gate.ckt());
    expect_sharing_through_a_transient(gate.ckt(), system, 10e-12, "Xleg6.");
  }
}

// ------------------------- per-solve twin state (DESIGN.md §7k) and the
// residual-only converging trial (DESIGN.md §5, decision 4)

/// Writes nothing and has no kernel descriptor, so every assembly pass
/// stamps it through Device::stamp right after the nonlinear lanes.
/// While armed it records each residual-carrying pass: the iterate, the
/// pass scalars, and the residual, scale and Jacobian values accumulated
/// so far.
class PassSpy final : public spice::Device {
 public:
  struct Pass {
    std::vector<double> x, f, scale;
    std::vector<double> j;  ///< CSR or dense values; empty: residual-only
    AnalysisMode mode = AnalysisMode::kDcOperatingPoint;
    double time = 0.0, dt = 0.0, gmin = 0.0, source_factor = 1.0;
  };

  explicit PassSpy(std::string name) : Device(std::move(name)) {}

  void stamp(spice::StampContext& ctx) const override {
    if (!armed || !ctx.wants_residual()) return;
    const std::size_t n = ctx.system().num_unknowns();
    Pass pass;
    pass.x.assign(ctx.iterate_data(), ctx.iterate_data() + n);
    pass.f.assign(ctx.residual_data(), ctx.residual_data() + n);
    pass.scale.assign(ctx.residual_scale_data(),
                      ctx.residual_scale_data() + n);
    if (const linalg::CsrMatrix* csr = ctx.sparse_sink()) {
      pass.j = csr->values();
    } else if (const linalg::Matrix* dense = ctx.dense_sink()) {
      pass.j.assign(dense->data(), dense->data() + n * n);
    }
    pass.mode = ctx.mode();
    pass.time = ctx.time();
    pass.dt = ctx.dt();
    pass.gmin = ctx.gmin();
    pass.source_factor = ctx.source_factor();
    passes.push_back(std::move(pass));
  }

  bool armed = false;
  mutable std::vector<Pass> passes;
};

/// Holds every pass the spy recorded to the lane-ordered Device::stamp
/// reference at the pass's own iterate and scalars, bit for bit.  The
/// sparse Newton path stamps the nonlinear lanes over the linear
/// baseline (linear devices at gmin 0 and source factor 1) and the spy
/// sees the residual before the linear devices add theirs; the dense
/// oracle stamps every lane, linear first.
void expect_passes_match_stamps(const MnaSystem& system, const PassSpy& spy,
                                bool sparse, const std::string& where) {
  const std::size_t n = system.num_unknowns();
  for (std::size_t k = 0; k < spy.passes.size(); ++k) {
    const PassSpy::Pass& pass = spy.passes[k];
    const std::string at = where + " pass " + std::to_string(k);
    linalg::Vector x(n);
    std::copy(pass.x.begin(), pass.x.end(), x.begin());
    linalg::Vector f(n, 0.0), scale(n, 0.0);
    std::vector<double> j;
    if (sparse) {
      linalg::CsrMatrix csr = system.make_sparse_jacobian();
      spice::StampContext linear(system, x, &csr, f, scale);
      linear.disable_residual();
      linear.configure(pass.mode, pass.time, pass.dt, 0.0, 1.0);
      stamp_lane_devices(system, linear, /*linear=*/true);
      spice::StampContext nonlinear(system, x, &csr, f, scale);
      nonlinear.configure(pass.mode, pass.time, pass.dt, pass.gmin,
                          pass.source_factor);
      stamp_lane_devices(system, nonlinear, /*linear=*/false);
      j = csr.values();
    } else {
      linalg::Matrix dense(n, n);
      spice::StampContext ctx(system, x, dense, f, scale);
      ctx.configure(pass.mode, pass.time, pass.dt, pass.gmin,
                    pass.source_factor);
      stamp_in_lane_order(system, ctx);
      j.assign(dense.data(), dense.data() + n * n);
    }
    expect_bitwise(pass.f.data(), f.data(), n, at + " f");
    expect_bitwise(pass.scale.data(), scale.data(), n, at + " scale");
    if (!pass.j.empty()) {
      ASSERT_EQ(pass.j.size(), j.size()) << at;
      expect_bitwise(pass.j.data(), j.data(), j.size(), at + " J");
    }
  }
}

/// A 16-cell hybrid column read (row 5 accessed) with a PassSpy after
/// its devices, and its system.  Two of them take the same device
/// changes in SolveStatesFollowDeviceChangesBetweenSolves.
struct SpiedColumn {
  SpiedColumn() {
    config.cell.kind = core::SramKind::kHybrid;
    config.n_cells = 16;
    config.active_cell = 5;
    column = core::build_sram_column(config);
    Circuit& ckt = column.ckt();
    ckt.find<VoltageSource>("Vwl").set_wave(
        SourceWave::pulse(0.0, config.cell.vdd, 20e-12, 20e-12, 20e-12, 1.0));
    spy = &ckt.add<PassSpy>("Yspy");
    system = std::make_unique<MnaSystem>(ckt);
    core::nodeset_column_state(*system, column);
    system->set_nodeset(ckt.find_node("bl"), config.cell.vdd);
    system->set_nodeset(ckt.find_node("blb"), config.cell.vdd);
    for (std::size_t i = 0; i < ckt.num_devices(); ++i) {
      spice::Device& device = ckt.device(i);
      if (device.name().rfind(kCell, 0) != 0) continue;
      if (auto* m = dynamic_cast<Mosfet*>(&device)) mosfets.push_back(m);
      if (auto* m = dynamic_cast<Nemfet*>(&device)) nemfets.push_back(m);
    }
  }

  /// The idle cell whose devices change.
  static constexpr const char* kCell = "Xcell11.";
  core::SramColumnConfig config;
  core::SramColumn column;
  PassSpy* spy = nullptr;
  std::unique_ptr<MnaSystem> system;
  std::vector<Mosfet*> mosfets;  ///< kCell's
  std::vector<Nemfet*> nemfets;  ///< kCell's
};

/// The twin_key of every device that has one, in circuit order.
std::vector<spice::TwinKey> device_twin_keys(const Circuit& ckt) {
  std::vector<spice::TwinKey> keys;
  for (std::size_t i = 0; i < ckt.num_devices(); ++i) {
    spice::TwinKey key;
    if (const auto* m = dynamic_cast<const Mosfet*>(&ckt.device(i))) {
      m->twin_key(key);
    } else if (const auto* m = dynamic_cast<const Nemfet*>(&ckt.device(i))) {
      m->twin_key(key);
    } else {
      continue;
    }
    keys.push_back(key);
  }
  return keys;
}

TEST(KernelTwins, SolveStatesFollowDeviceChangesBetweenSolves) {
  // One NewtonSolver serves the whole run, so its classes are grouped
  // once.  Between its solves one idle cell's devices change through
  // every path that moves a twin_key: a width setter, a Vth setter, a
  // parameter-bank overlay and a direct accept_step; one change also
  // falls between two MnaSystem::accept calls with no solve between.
  // Every pass of every later solve must still equal the Device::stamp
  // reference: the changed devices must not replay their former twins'
  // records.  A shadow column takes the same changes and commits every
  // step through a plain per-device accept_step loop.  After every
  // MnaSystem::accept each device's twin_key must equal its shadow's:
  // a changed device must not adopt its former twins' commit.
  for (const spice::JacobianSolver solver :
       {spice::JacobianSolver::kSparse, spice::JacobianSolver::kDense}) {
    const bool sparse = solver == spice::JacobianSolver::kSparse;
    SCOPED_TRACE(sparse ? "sparse" : "dense");
    SpiedColumn main;
    SpiedColumn shadow;
    MnaSystem& system = *main.system;
    Circuit& ckt = main.column.ckt();
    ASSERT_FALSE(main.mosfets.empty());
    ASSERT_FALSE(main.nemfets.empty());
    spice::NewtonOptions options;
    options.solver = solver;
    spice::NewtonSolver newton(system, options);

    // Applies a change to the cell of both columns.
    auto change = [&](const std::function<void(SpiedColumn&)>& fn) {
      fn(main);
      fn(shadow);
    };
    const double dt = 2e-12;
    double t = 0.0;
    linalg::Vector x = system.initial_guess();
    auto accept = [&](AnalysisMode mode, double time, double h,
                      const std::string& where) {
      const std::size_t adopted = system.accept(x, mode, time, h);
      const spice::Solution solution(*shadow.system, x);
      const spice::AcceptContext ctx(solution, mode, time, h);
      Circuit& plain = shadow.column.ckt();
      for (std::size_t i = 0; i < plain.num_devices(); ++i) {
        plain.device(i).accept_step(ctx);
      }
      const std::vector<spice::TwinKey> got = device_twin_keys(ckt);
      const std::vector<spice::TwinKey> want = device_twin_keys(plain);
      EXPECT_EQ(got.size(), want.size()) << where;
      for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        EXPECT_TRUE(got[i] == want[i])
            << where << ": twin-keyed device " << i
            << " committed another state than its plain accept_step";
      }
      return adopted;
    };
    // One solve and its accept; `rekeys` is how many of its passes must
    // re-key the state ids: one after a change, none when only accepts
    // ran since the last solve.  While the idle cells stay identical their
    // accept must share commits.
    auto solve = [&](const std::string& where, std::int64_t rekeys,
                     bool idle_cells_identical = true) {
      const AnalysisMode mode = t == 0.0 ? AnalysisMode::kDcOperatingPoint
                                         : AnalysisMode::kTransient;
      const double h = t == 0.0 ? 0.0 : dt;
      main.spy->passes.clear();
      main.spy->armed = true;
      spice::NewtonStats stats;
      x = newton.solve(x, mode, t, h, &stats);
      main.spy->armed = false;
      EXPECT_GE(main.spy->passes.size(), 2u) << where;
      EXPECT_EQ(stats.twin_rekeys, rekeys) << where;
      expect_passes_match_stamps(system, *main.spy, sparse, where);
      const std::size_t adopted = accept(mode, t, h, where);
      if (idle_cells_identical) {
        EXPECT_GT(adopted, 0u) << where << ": no step commit was shared";
      }
      t += dt;
    };
    solve("bias point", 1);
    for (int step = 1; step <= 3; ++step) {
      solve("step " + std::to_string(step), 0);
    }
    const std::uint64_t replays = total_twin_replays(system);
    EXPECT_GT(replays, 0u) << "no evaluation was shared";

    change([](SpiedColumn& c) {
      for (Mosfet* m : c.mosfets) m->set_width(1.05 * m->width());
      for (Nemfet* m : c.nemfets) m->set_width(1.05 * m->width());
    });
    solve("after set_width", 1);

    change([](SpiedColumn& c) {
      for (Mosfet* m : c.mosfets) m->set_vth_shift(0.01);
      for (Nemfet* m : c.nemfets) m->set_vth_shift(-0.01);
    });
    solve("after set_vth_shift", 1);

    change([](SpiedColumn& c) {
      spice::ParamBank& bank = c.column.ckt().param_bank();
      spice::ParamPatch patch;
      for (const char* name : {"mos.vth_shift", "nems.vth_shift"}) {
        const std::size_t col = bank.find_column(name);
        ASSERT_NE(col, spice::ParamBank::npos) << name;
        const std::vector<std::string>& owners = bank.column_owners(col);
        for (std::size_t row = 0; row < owners.size(); ++row) {
          if (owners[row].rfind(SpiedColumn::kCell, 0) != 0) continue;
          const spice::ParamSlot slot{static_cast<std::uint32_t>(col),
                                      static_cast<std::uint32_t>(row)};
          patch.push_back({slot, bank.value(slot) + 0.02});
        }
      }
      ASSERT_FALSE(patch.empty());
      bank.apply(patch);
      c.column.ckt().notify_params_changed();
    });
    solve("after a bank overlay", 1);

    linalg::Vector nudged = x;
    for (std::size_t i = 0; i < nudged.size(); ++i) {
      const spice::UnknownInfo& info = system.unknown_info(i);
      if (info.kind == spice::UnknownKind::kNodeVoltage &&
          info.name.find(SpiedColumn::kCell) != std::string::npos) {
        nudged[i] += 1e-3;
      }
    }
    change([&](SpiedColumn& c) {
      const spice::Solution solution(*c.system, nudged);
      const spice::AcceptContext ctx(solution, AnalysisMode::kTransient,
                                     t - dt, dt);
      for (Mosfet* m : c.mosfets) m->accept_step(ctx);
      for (Nemfet* m : c.nemfets) m->accept_step(ctx);
    });
    solve("after a direct accept_step", 1);
    EXPECT_GT(total_twin_replays(system), replays)
        << "the changed cell stopped the sharing";

    // A change between two accepts: the second accept must not trust the
    // ids the first carried.  The changed devices kept the ids of their
    // idle twins and see the same accepted values.
    change([](SpiedColumn& c) {
      for (Mosfet* m : c.mosfets) m->set_width(1.05 * m->width());
      for (Nemfet* m : c.nemfets) m->set_width(1.05 * m->width());
    });
    EXPECT_EQ(accept(AnalysisMode::kTransient, t - dt, dt,
                     "accept after set_width"),
              0u)
        << "an accept after a change shared a commit";
    solve("after an accept after set_width", 1);
    solve("one step later", 0);

    // More distinct states than a class tells apart: the members past
    // them evaluate plainly (and commit plainly).  Every cell now holds
    // its own node voltages, so no commit is shared.
    change([](SpiedColumn& c) {
      double shift = 0.0;
      Circuit& circuit = c.column.ckt();
      for (std::size_t i = 0; i < circuit.num_devices(); ++i) {
        if (auto* m = dynamic_cast<Mosfet*>(&circuit.device(i))) {
          m->set_vth_shift(shift += 1e-3);
        }
      }
      ASSERT_GT(shift, 1e-3 * spice::KernelTwins::kMaxStates);
    });
    solve("after more states than a class holds", 1,
          /*idle_cells_identical=*/false);
    const KernelLane* lane = find_lane(system.kernel_plan(), "mosfet");
    ASSERT_NE(lane, nullptr);
    EXPECT_GT(std::count(lane->twins.state_of.begin(),
                         lane->twins.state_of.end(), spice::KernelTwins::kNone),
              0)
        << "no member was left without a state";
    solve("a step with members past the states", 0,
          /*idle_cells_identical=*/false);
  }
}

/// The residual-only passes against the full passes they stand in for
/// at one iterate, bit for bit: assemble_sparse_residual against
/// assemble_sparse over the linear baseline (the sparse Newton path),
/// assemble_residual against assemble (the dense oracle).
void expect_residual_passes_match(const MnaSystem& system,
                                  const linalg::Vector& x, AnalysisMode mode,
                                  double time, double dt,
                                  const std::string& where) {
  const double gmin = 1e-12;
  const std::size_t n = system.num_unknowns();
  linalg::Vector f, scale, fr, scale_r;
  linalg::CsrMatrix csr = system.make_sparse_jacobian();
  std::vector<double> baseline;
  ASSERT_TRUE(
      system.assemble_linear_jacobian(x, csr, baseline, mode, time, dt));
  ASSERT_TRUE(system.assemble_sparse(x, csr, f, scale, mode, time, dt, gmin,
                                     1.0, &baseline));
  system.assemble_sparse_residual(x, fr, scale_r, mode, time, dt, gmin, 1.0);
  expect_bitwise(fr.data(), f.data(), n, where + " sparse f");
  expect_bitwise(scale_r.data(), scale.data(), n, where + " sparse scale");

  linalg::Matrix j;
  system.assemble(x, j, f, scale, mode, time, dt, gmin, 1.0);
  system.assemble_residual(x, fr, scale_r, mode, time, dt, gmin, 1.0);
  expect_bitwise(fr.data(), f.data(), n, where + " dense f");
  expect_bitwise(scale_r.data(), scale.data(), n, where + " dense scale");
}

/// Solves the bias point and `steps` fixed-dt transient steps through
/// one NewtonSolver per Jacobian solver.  Checks the residual-only passes
/// against the full ones after the bias point and the last step (and at
/// a nudged copy, off the sharing classes), in DC and transient mode.
/// Checks that every converged solve_plain ended on one residual-only
/// pass in place of the full pass it used to assemble: on these runs no
/// trial is damped, so a solve of k iterations assembles its initial
/// point and k - 1 accepted trials in full and its converging trial
/// residual-only.  With `plain_bias_point` false the bias point runs the
/// homotopy ladder and its work is not checked.
void expect_one_residual_pass_per_solve(MnaSystem& system, double dt,
                                        int steps, bool plain_bias_point,
                                        const std::string& perturb) {
  for (const spice::JacobianSolver solver :
       {spice::JacobianSolver::kSparse, spice::JacobianSolver::kDense}) {
    SCOPED_TRACE(solver == spice::JacobianSolver::kSparse ? "sparse"
                                                          : "dense");
    system.reset_devices();
    spice::NewtonOptions options;
    options.solver = solver;
    spice::NewtonSolver newton(system, options);
    linalg::Vector x = system.initial_guess();
    double t = 0.0;
    for (int step = 0; step <= steps; ++step) {
      const AnalysisMode mode = step == 0 ? AnalysisMode::kDcOperatingPoint
                                          : AnalysisMode::kTransient;
      const double h = step == 0 ? 0.0 : dt;
      const std::string where = "solve " + std::to_string(step);
      if (step == 0 && !plain_bias_point) {
        x = newton.solve(x, mode, t, h);
      } else {
        spice::NewtonStats stats;
        x = newton.solve_plain(x, mode, t, h, options.gmin_final, 1.0,
                               &stats);
        EXPECT_EQ(stats.residual_assembles, 1) << where;
        EXPECT_EQ(stats.assembles, stats.iterations) << where;
      }
      system.accept(x, mode, t, h);
      if (step == 0 || step == steps) {
        for (const AnalysisMode m : {AnalysisMode::kDcOperatingPoint,
                                     AnalysisMode::kTransient}) {
          const double tm = m == AnalysisMode::kTransient ? t + dt : 0.0;
          const double hm = m == AnalysisMode::kTransient ? dt : 0.0;
          expect_residual_passes_match(system, x, m, tm, hm, where);
          linalg::Vector nudged = x;
          for (std::size_t i = 0; i < nudged.size(); ++i) {
            if (system.unknown_info(i).name.find(perturb) !=
                std::string::npos) {
              nudged[i] += 1e-3 * (1.0 + std::abs(nudged[i]));
            }
          }
          expect_residual_passes_match(system, nudged, m, tm, hm,
                                       where + " nudged");
        }
      }
      t += dt;
    }
  }
}

TEST(NewtonResidualPass, HybridColumnConvergesOnResidualOnlyTrials) {
  core::SramColumnConfig config;
  config.cell.kind = core::SramKind::kHybrid;
  config.n_cells = 16;
  config.active_cell = 5;
  core::SramColumn column = core::build_sram_column(config);
  column.ckt().find<VoltageSource>("Vwl").set_wave(
      SourceWave::pulse(0.0, config.cell.vdd, 20e-12, 20e-12, 20e-12, 1.0));
  MnaSystem system(column.ckt());
  core::nodeset_column_state(system, column);
  system.set_nodeset(column.ckt().find_node("bl"), config.cell.vdd);
  system.set_nodeset(column.ckt().find_node("blb"), config.cell.vdd);
  expect_one_residual_pass_per_solve(system, 2e-12, 40,
                                     /*plain_bias_point=*/true, "Xcell11.");
}

TEST(NewtonResidualPass, DynamicOrConvergesOnResidualOnlyTrials) {
  // 30 steps of 10 ps stop short of the input edge at 0.3 ns, which a
  // plain solve at that fixed step does not cross.
  core::DynamicOrConfig config;
  config.hybrid = true;
  config.t_precharge = 0.2e-9;
  core::DynamicOrGate gate = core::build_dynamic_or(config);
  gate.ckt().find<VoltageSource>(gate.input_source(0))
      .set_wave(SourceWave::pulse(0.0, config.vdd, 0.3e-9, 20e-12, 20e-12,
                                  1.0));
  MnaSystem system(gate.ckt());
  expect_one_residual_pass_per_solve(system, 10e-12, 30,
                                     /*plain_bias_point=*/false, "Xleg6.");
}

}  // namespace
}  // namespace nemsim
