// Type-bucketed kernel lanes: plan construction, scatter-map
// correctness against the unknown table, pattern-epoch tracking of the
// CSR slot tables, the off-by-default bitwise contract, and the
// kernels-on reltol contract against the virtual-dispatch baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"

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

void expect_identical(const spice::Waveform& a, const spice::Waveform& b) {
  ASSERT_EQ(a.num_samples(), b.num_samples());
  ASSERT_EQ(a.num_signals(), b.num_signals());
  for (std::size_t k = 0; k < a.num_samples(); ++k) {
    ASSERT_EQ(a.times()[k], b.times()[k]) << "sample " << k;
    for (std::size_t s = 0; s < a.num_signals(); ++s) {
      ASSERT_EQ(a.sample(s, k), b.sample(s, k))
          << a.signal_names()[s] << " sample " << k;
    }
  }
}

// ---------------------------------------------------------- lane building

TEST(KernelPlan, BucketsEveryInTreeDeviceType) {
  Circuit ckt = make_hybrid_inverter();
  MnaSystem system(ckt);
  system.configure_kernels(true);
  ASSERT_NE(system.kernel_plan(), nullptr);
  const KernelPlan& plan = *system.kernel_plan();

  // Every in-tree device type has a descriptor: nothing falls through to
  // the per-device virtual path.
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
  system.configure_kernels(true);
  const KernelPlan& plan = *system.kernel_plan();
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

TEST(KernelPlan, SparseSlotsTrackThePatternEpoch) {
  Circuit ckt = make_hybrid_inverter();
  MnaSystem system(ckt);

  // Build the pattern first (without kernels), then enable: the plan's
  // declared cells may genuinely extend the recorded pattern (e.g. the
  // MOSFET's swapped-orientation cells), which must go through a proper
  // epoch bump, and the first kernels-on sparse solve must resolve the
  // slot tables against the final epoch.
  spice::OpOptions plain;
  plain.newton.solver = spice::JacobianSolver::kSparse;
  (void)spice::operating_point(system, plain);
  const std::uint64_t epoch_before = system.jacobian_pattern_epoch();

  system.configure_kernels(true);
  ASSERT_NE(system.kernel_plan(), nullptr);
  EXPECT_GE(system.jacobian_pattern_epoch(), epoch_before);
  // Slots are resolved lazily at the first kernels-on sparse assembly.
  EXPECT_EQ(system.kernel_plan()->sparse_epoch, KernelPlan::kNoEpoch);

  spice::OpOptions with;
  with.newton.solver = spice::JacobianSolver::kSparse;
  with.newton.kernels = true;
  (void)spice::operating_point(system, with);
  EXPECT_EQ(system.kernel_plan()->sparse_epoch,
            system.jacobian_pattern_epoch());

  // Resolved slots all point inside the CSR value array.
  const linalg::CsrMatrix csr = system.make_sparse_jacobian();
  for (const KernelLane& lane : system.kernel_plan()->lanes) {
    for (std::size_t s : lane.sparse_slots) {
      if (s == kKernelAbsent) continue;
      EXPECT_LT(s, csr.values().size());
    }
  }
}

// ------------------------------------------------------ off-path contract

TEST(KernelContract, OffRunsAreBitwiseUnchanged) {
  auto run = [](const spice::NewtonOptions& newton) {
    Circuit ckt = make_hybrid_inverter();
    MnaSystem system(ckt);
    spice::TransientOptions o;
    o.newton = newton;
    o.tstop = 1.5e-9;
    o.dt_initial = 1e-13;
    return spice::transient(system, o);
  };
  const spice::Waveform a = run(spice::NewtonOptions{});
  spice::NewtonOptions off;
  off.kernels = false;
  const spice::Waveform b = run(off);
  expect_identical(a, b);
}

TEST(KernelContract, OnThenOffLeavesNoStateBehind) {
  // A kernels-on run followed by a default run on the SAME system must
  // reproduce a fresh default run bitwise.
  Circuit ckt = make_hybrid_inverter();
  MnaSystem system(ckt);
  spice::TransientOptions on;
  on.tstop = 1.5e-9;
  on.dt_initial = 1e-13;
  on.newton.kernels = true;
  spice::transient(system, on);

  spice::TransientOptions off = on;
  off.newton = spice::NewtonOptions{};
  const spice::Waveform after = spice::transient(system, off);

  Circuit fresh_ckt = make_hybrid_inverter();
  MnaSystem fresh_system(fresh_ckt);
  const spice::Waveform fresh = spice::transient(fresh_system, off);
  expect_identical(after, fresh);
}

// ------------------------------------------------------- on-path contract

TEST(KernelContract, OperatingPointMatchesVirtualPath) {
  for (spice::JacobianSolver solver :
       {spice::JacobianSolver::kDense, spice::JacobianSolver::kSparse}) {
    Circuit base_ckt = make_hybrid_inverter();
    MnaSystem base_system(base_ckt);
    spice::OpOptions base_opts;
    base_opts.newton.solver = solver;
    const spice::OpResult base = spice::operating_point(base_system, base_opts);

    Circuit kern_ckt = make_hybrid_inverter();
    MnaSystem kern_system(kern_ckt);
    spice::OpOptions kern_opts = base_opts;
    kern_opts.newton.kernels = true;
    const spice::OpResult fast =
        spice::operating_point(kern_system, kern_opts);

    ASSERT_EQ(base.raw().size(), fast.raw().size());
    for (std::size_t i = 0; i < base.raw().size(); ++i) {
      EXPECT_NEAR(base.raw()[i], fast.raw()[i],
                  1e-6 + 1e-6 * std::abs(base.raw()[i]))
          << "unknown " << i << " solver " << static_cast<int>(solver);
    }
  }
}

TEST(KernelContract, TransientMatchesVirtualPathAndCountsLanes) {
  auto run = [](bool kernels, spice::NewtonStats* stats) {
    Circuit ckt = make_hybrid_inverter();
    MnaSystem system(ckt);
    spice::TransientOptions o;
    o.tstop = 1.5e-9;
    o.dt_initial = 1e-13;
    o.newton.kernels = kernels;
    o.newton_stats = stats;
    return spice::transient(system, o);
  };
  spice::NewtonStats base_stats, kern_stats;
  const spice::Waveform base = run(false, &base_stats);
  const spice::Waveform fast = run(true, &kern_stats);
  for (double t : {0.1e-9, 0.3e-9, 0.6e-9, 1.0e-9, 1.5e-9}) {
    EXPECT_NEAR(base.at("v(out)", t), fast.at("v(out)", t), 5e-3)
        << "t = " << t;
  }

  // Per-bucket counters: the kernels run evaluated every lane; the
  // baseline run reports none.
  EXPECT_TRUE(base_stats.kernel_lane_evals.empty());
  ASSERT_FALSE(kern_stats.kernel_lane_evals.empty());
  for (const char* bucket : {"mosfet", "nemfet", "capacitor", "vsource"}) {
    const auto it = std::find_if(
        kern_stats.kernel_lane_evals.begin(), kern_stats.kernel_lane_evals.end(),
        [&](const auto& e) { return e.first == bucket; });
    ASSERT_NE(it, kern_stats.kernel_lane_evals.end()) << bucket;
    EXPECT_GT(it->second, 0u) << bucket;
  }

  // nonlinear_evals counts one model evaluation per nonlinear device
  // (MP, XN) per Newton assembly pass, full or residual-only, on either
  // path.
  for (const spice::NewtonStats* s : {&base_stats, &kern_stats}) {
    EXPECT_GT(s->nonlinear_evals, 0);
    EXPECT_EQ(s->nonlinear_evals, 2 * (s->assembles + s->residual_assembles));
  }
}

}  // namespace
}  // namespace nemsim
