// NEMFET electromechanical model tests: pull-in/pull-out physics,
// hysteresis, Table 1 calibration, and transient switching.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <random>
#include <vector>

#include "nemsim/devices/ekv.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/measure.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/tech/characterize.h"
#include "nemsim/util/units.h"
#include "twin_key_check.h"

namespace nemsim {
namespace {

using namespace nemsim::literals;
using devices::Nemfet;
using devices::NemsParams;
using devices::NemsPolarity;
using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;
using spice::MnaSystem;

// ------------------------------------------------------- analytic checks

TEST(NemsParams, PullInNearHalfVolt) {
  const NemsParams p = tech::nems_90nm();
  EXPECT_GT(p.analytic_pull_in_voltage(), 0.3);
  EXPECT_LT(p.analytic_pull_in_voltage(), 0.6);
}

TEST(NemsParams, PullOutBelowPullIn) {
  const NemsParams p = tech::nems_90nm();
  EXPECT_LT(p.analytic_pull_out_voltage(), p.analytic_pull_in_voltage());
  EXPECT_GT(p.analytic_pull_out_voltage(), 0.0);
}

TEST(NemfetModel, ForceIncreasesWithVoltageAndDisplacement) {
  const NemsParams p = tech::nems_90nm();
  Nemfet x("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           NemsPolarity::kN, p, 1.0_um);
  const double f1 = x.electrostatic_force(0.3, 0.0);
  const double f2 = x.electrostatic_force(0.6, 0.0);
  EXPECT_NEAR(f2 / f1, 4.0, 1e-9);  // F ~ V^2
  const double f3 = x.electrostatic_force(0.3, 1.0_nm);
  EXPECT_GT(f3, f1);  // closing the gap raises the force
}

TEST(NemfetModel, ContactForceOnlyNearStop) {
  const NemsParams p = tech::nems_90nm();
  Nemfet x("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           NemsPolarity::kN, p, 1.0_um);
  EXPECT_LT(x.contact_force(0.0), 1e-15);
  EXPECT_GT(x.contact_force(p.gap0 + 0.1_nm), 1e-7);
}

TEST(NemfetModel, ChannelOffWhenUpOnWhenDown) {
  const NemsParams p = tech::nems_90nm();
  Nemfet x("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           NemsPolarity::kN, p, 1.0_um);
  const double i_up = x.drain_current(1.2, 1.2, 0.0);
  const double i_down = x.drain_current(1.2, 1.2, p.gap0);
  EXPECT_GT(i_down / i_up, 1e5);
}

TEST(NemfetModel, GateCapRisesAsGapCloses) {
  const NemsParams p = tech::nems_90nm();
  Nemfet x("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           NemsPolarity::kN, p, 1.0_um);
  EXPECT_GT(x.gate_capacitance(p.gap0), 3.0 * x.gate_capacitance(0.0));
}

// ------------------------------------------------- DC sweep / hysteresis

TEST(NemfetCharacterize, Table1Calibration) {
  tech::NemsIV iv = tech::characterize_nemfet(tech::nems_90nm(), 1.0_um, 1.2);
  EXPECT_NEAR(iv.iv.ion, 330e-6, 0.10 * 330e-6);   // 330 uA/um +- 10 %
  EXPECT_NEAR(iv.iv.ioff, 110e-12, 0.25 * 110e-12);  // 110 pA/um +- 25 %
}

TEST(NemfetCharacterize, SteepSwitchingNearPullIn) {
  tech::NemsIV iv = tech::characterize_nemfet(tech::nems_90nm(), 1.0_um, 1.2);
  // The mechanical snap gives a far-sub-thermionic effective swing.
  EXPECT_LT(iv.iv.swing_mv_dec, 10.0);
}

TEST(NemfetCharacterize, HysteresisWindowMatchesAnalytics) {
  // The DC sweeps jump at the first point past each fold of the branch
  // table, so both jump voltages sit within one sweep step of the folds.
  const NemsParams p = tech::nems_90nm();
  constexpr std::size_t kPoints = 241;
  tech::NemsIV iv = tech::characterize_nemfet(p, 1.0_um, 1.2, kPoints);
  const double step = 1.2 / (kPoints - 1);
  EXPECT_NEAR(iv.pull_in_v, p.pull_in_voltage(), step);
  EXPECT_NEAR(iv.pull_out_v, p.pull_out_voltage(), step);
  EXPECT_LT(iv.pull_out_v, iv.pull_in_v);
}

TEST(NemfetCharacterize, OnOffRatioBeatsCmosBy500x) {
  tech::NemsIV nems = tech::characterize_nemfet(tech::nems_90nm(), 1.0_um, 1.2);
  tech::DeviceIV cmos = tech::characterize_mosfet(
      tech::nmos_90nm(), devices::MosPolarity::kNmos, 1.0_um, 0.1_um, 1.2);
  const double nems_ratio = nems.iv.ion / nems.iv.ioff;
  const double cmos_ratio = cmos.ion / cmos.ioff;
  EXPECT_GT(nems_ratio / cmos_ratio, 100.0);
}

// ------------------------------------------------ static equilibrium

// Reference solver for Nemfet::static_equilibrium: a 256-point residual
// scan up to a walked upper bound, with an 80-step bisection in every
// bracket where the residual turns from negative to non-negative, and the
// same branch-memory rule and dx/d|v| formula.
// The force balance r(x) = k x + Fc - Fe at |v| and its slope, as two
// separate functions of the model's public helpers.
double force_residual(const Nemfet& dev, double v_abs, double x) {
  const NemsParams& p = dev.params();
  const double k = p.spring_k * (dev.width() / p.w_ref);
  return k * x + dev.contact_force(x) - dev.electrostatic_force(v_abs, x);
}

double force_residual_slope(const Nemfet& dev, double v_abs, double x) {
  const NemsParams& p = dev.params();
  const double k = p.spring_k * (dev.width() / p.w_ref);
  const double d = dev.air_gap(x) + p.tox / p.eps_ox;
  const double fe = dev.electrostatic_force(v_abs, x);
  const double dga = -devices::ekv::sigmoid((p.gap0 - x) / p.gap_softness);
  const double dfe = -2.0 * fe / d * dga;
  const double dfc = p.contact_k * (dev.width() / p.w_ref) *
                     devices::ekv::sigmoid((x - p.gap0) / p.contact_softness);
  return k + dfc - dfe;
}

Nemfet::StaticEq scan_equilibrium(const Nemfet& dev, double v_abs,
                                  double x_state) {
  const NemsParams& p = dev.params();
  const double k = p.spring_k * (dev.width() / p.w_ref);
  auto residual = [&](double x) { return force_residual(dev, v_abs, x); };
  auto residual_slope = [&](double x) {
    return force_residual_slope(dev, v_abs, x);
  };
  double x_hi = p.gap0;
  for (int i = 0; i < 200 && residual(x_hi) <= 0.0; ++i) {
    x_hi += 0.05 * p.gap0;
  }
  std::vector<double> roots;
  double x_prev = 0.0;
  double r_prev = residual(0.0);
  if (r_prev == 0.0) roots.push_back(0.0);
  for (int i = 1; i <= 256; ++i) {
    const double xx = x_hi * static_cast<double>(i) / 256;
    const double rr = residual(xx);
    if (r_prev < 0.0 && rr >= 0.0) {
      double lo = x_prev, hi = xx;
      for (int it = 0; it < 80; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (residual(mid) < 0.0) lo = mid; else hi = mid;
      }
      roots.push_back(0.5 * (lo + hi));
    }
    x_prev = xx;
    r_prev = rr;
  }
  if (roots.empty()) return {0.0, 0.0};
  double x = roots.front();
  for (double root : roots) {
    if (std::abs(root - x_state) < std::abs(x - x_state)) x = root;
  }
  const double d = dev.air_gap(x) + p.tox / p.eps_ox;
  const double a = p.area * (dev.width() / p.w_ref);
  const double dfe_dv = phys::kEps0 * a * v_abs / (d * d);
  return {x, dfe_dv / std::max(residual_slope(x), 1e-3 * k)};
}

// Softer, smoother contact stop than the default card.
NemsParams soft_contact_card() {
  NemsParams p = tech::nems_90nm();
  p.contact_k = 2e3;
  p.contact_softness = 2e-10;
  return p;
}

// Dielectric thicker than twice the air gap: the beam lands before the
// electrostatic spring softening can fold it, so there is no pull-in.
NemsParams monostable_card() {
  NemsParams p = tech::nems_90nm();
  p.tox = 2.5 * p.gap0 * p.eps_ox;
  return p;
}

// Relative distance of |v| to the nearest fold of the card.
double distance_to_fold(const NemsParams& p, double v) {
  double dist = std::numeric_limits<double>::infinity();
  for (double fold : {p.pull_in_voltage(), p.pull_out_voltage()}) {
    if (fold > 0.0 && std::isfinite(fold)) {
      dist = std::min(dist, std::abs(v / fold - 1.0));
    }
  }
  return dist;
}

// A dense |v| sweep over 0..1.5 V plus points at and just past each fold.
std::vector<double> equilibrium_sweep(const NemsParams& p) {
  std::vector<double> v = spice::linspace(0.0, 1.5, 3001);
  for (double fold : {p.pull_in_voltage(), p.pull_out_voltage()}) {
    if (!(fold > 0.0 && std::isfinite(fold))) continue;
    for (double rel : {0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3}) {
      v.push_back(fold * (1.0 - rel));
      v.push_back(fold * (1.0 + rel));
    }
  }
  return v;
}

void expect_matches_scan_oracle(const NemsParams& p) {
  for (double width : {1.0_um, 0.3_um}) {
    for (double x_state : {0.0, p.gap0}) {
      Nemfet dev("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
                 NemsPolarity::kN, p, width);
      dev.set_initial_position(x_state);
      for (double v : equilibrium_sweep(p)) {
        const Nemfet::StaticEq got = dev.static_equilibrium(v);
        const Nemfet::StaticEq want = scan_equilibrium(dev, v, x_state);
        SCOPED_TRACE(::testing::Message()
                     << "v=" << v << " W=" << width << " x_state=" << x_state);
        if (std::abs(got.x - want.x) <= 1e-6 * p.gap0) {
          EXPECT_NEAR(got.dx_dv, want.dx_dv, 1e-9 * std::abs(want.dx_dv));
          continue;
        }
        // The documented window: within 1e-4 of a fold (1e-6 measured),
        // the scan's grid can miss the narrow sign change of the branch
        // the beam sits on and falls back to a root on another branch.
        // The solver still finds the root nearest the remembered position.
        EXPECT_LT(distance_to_fold(p, v), 1e-4);
        EXPECT_LT(std::abs(got.x - x_state), std::abs(want.x - x_state));
        EXPECT_NEAR(dev.electrostatic_force(v, got.x),
                    p.spring_k * (width / p.w_ref) * got.x +
                        dev.contact_force(got.x),
                    1e-9 * dev.electrostatic_force(v, got.x));
      }
    }
  }
}

TEST(NemfetEquilibrium, MatchesScanOracleOnTheDefaultCard) {
  expect_matches_scan_oracle(tech::nems_90nm());
}

TEST(NemfetEquilibrium, MatchesScanOracleWithASoftContact) {
  const NemsParams p = soft_contact_card();
  ASSERT_EQ(devices::NemsBranchTable::build(p).branches.size(), 2u);
  expect_matches_scan_oracle(p);
}

TEST(NemfetEquilibrium, MatchesScanOracleOnAMonostableCard) {
  const NemsParams p = monostable_card();
  const devices::NemsBranchTable table = devices::NemsBranchTable::build(p);
  ASSERT_EQ(table.branches.size(), 1u);
  EXPECT_TRUE(table.branches.front().unbounded);
  EXPECT_EQ(table.branches.front().x.front(), 0.0);
  EXPECT_TRUE(std::isinf(p.pull_in_voltage()));
  EXPECT_EQ(p.pull_out_voltage(), 0.0);
  expect_matches_scan_oracle(p);
}

TEST(NemfetEquilibrium, TableIsSharedAcrossWidths) {
  const NemsParams p = tech::nems_90nm();
  Nemfet a("A", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           NemsPolarity::kN, p, 1.0_um);
  Nemfet b("B", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           NemsPolarity::kP, p, 0.3_um);
  EXPECT_EQ(&a.branch_table(), &b.branch_table());
  const devices::NemsBranchTable fresh = devices::NemsBranchTable::build(p);
  ASSERT_EQ(fresh.branches.size(), a.branch_table().branches.size());
  for (std::size_t i = 0; i < fresh.branches.size(); ++i) {
    EXPECT_EQ(fresh.branches[i].x, a.branch_table().branches[i].x);
    EXPECT_EQ(fresh.branches[i].w, a.branch_table().branches[i].w);
  }
  // A channel-only change keeps the card's mechanics, hence its table.
  NemsParams channel = p;
  channel.vth_ch += 0.05;
  Nemfet c("C", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
           NemsPolarity::kN, channel, 1.0_um);
  EXPECT_EQ(&a.branch_table(), &c.branch_table());
}

TEST(NemfetEquilibrium, DefaultCardFoldsBoundTheHysteresisWindow) {
  const NemsParams p = tech::nems_90nm();
  const devices::NemsBranchTable table = devices::NemsBranchTable::build(p);
  ASSERT_EQ(table.branches.size(), 2u);
  const double x_pi = table.branches[0].x.back();
  const double x_po = table.branches[1].x.front();
  EXPECT_LT(x_pi, 0.5 * p.gap0);
  EXPECT_GT(x_po, 0.5 * p.gap0);
  // The smoothed pull-in sits on the parallel-plate value; the smoothed
  // pull-out does not: the softplus contact keeps a residual air gap.
  EXPECT_NEAR(p.pull_in_voltage(), p.analytic_pull_in_voltage(),
              1e-3 * p.analytic_pull_in_voltage());
  EXPECT_GT(p.pull_out_voltage(), 2.0 * p.analytic_pull_out_voltage());

  // The solver keeps each branch right up to its fold: 1e-9 inside a
  // fold it still returns the branch root, 1e-9 past it the other one.
  Nemfet dev("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
             NemsPolarity::kN, p, 1.0_um);
  const double vpi = p.pull_in_voltage();
  const double vpo = p.pull_out_voltage();
  dev.set_initial_position(0.0);
  EXPECT_LE(dev.static_equilibrium(vpi * (1.0 - 1e-9)).x, x_pi);
  EXPECT_GE(dev.static_equilibrium(vpi * (1.0 + 1e-9)).x, x_po);
  dev.set_initial_position(p.gap0);
  EXPECT_GE(dev.static_equilibrium(vpo * (1.0 + 1e-9)).x, x_po);
  EXPECT_LE(dev.static_equilibrium(vpo * (1.0 - 1e-9)).x, x_pi);
}

// Nemfet::static_equilibrium's root search (safeguarded Newton on each
// branch, adjacent-doubles finish, branch memory), with the residual and
// its slope evaluated by the two separate functions above.  The model
// computes both in one pass over the air gap and Fe.
bool two_function_branch_root(const Nemfet& dev,
                              const devices::NemsBranchTable::Branch& b,
                              double v_abs, double& root) {
  auto r = [&](double x) { return force_residual(dev, v_abs, x); };
  double lo = b.x.front();
  const double r_lo = r(lo);
  if (r_lo >= 0.0) {
    root = 0.0;
    return r_lo == 0.0 && lo == 0.0;
  }
  double hi = b.x.back();
  bool bracketed = r(hi) >= 0.0;
  for (int i = 0; !bracketed && b.unbounded && i < 64; ++i) {
    lo = hi;
    hi = b.x.front() + 2.0 * (hi - b.x.front());
    bracketed = r(hi) >= 0.0;
  }
  if (!bracketed) return false;
  const double target = v_abs * v_abs * dev.params().area;
  const auto it = std::upper_bound(b.w.begin(), b.w.end(), target);
  double x = 0.5 * (lo + hi);
  if (it != b.w.begin() && it != b.w.end()) {
    const std::size_t j = static_cast<std::size_t>(it - b.w.begin());
    const double t = (target - b.w[j - 1]) / (b.w[j] - b.w[j - 1]);
    x = b.x[j - 1] + t * (b.x[j] - b.x[j - 1]);
  }
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  for (int iter = 0; iter < 50; ++iter) {
    if (!(x > lo && x < hi)) x = 0.5 * (lo + hi);
    const double rx = r(x);
    if (rx < 0.0) lo = x; else hi = x;
    const double step = rx / force_residual_slope(dev, v_abs, x);
    if (!(std::abs(step) > 4.0 * kEps * std::abs(x))) break;
    x -= step;
  }
  if (x == lo || x == hi) {
    const bool from_above = x == hi;
    for (double s = std::max(std::abs(x) * kEps,
                             std::numeric_limits<double>::min());
         ; s *= 2.0) {
      const double probe = from_above ? hi - s : lo + s;
      if (!(probe > lo && probe < hi)) break;
      const bool below = r(probe) < 0.0;
      if (below) lo = probe; else hi = probe;
      if (below == from_above) break;
    }
  }
  for (double mid = 0.5 * (lo + hi); mid > lo && mid < hi;
       mid = 0.5 * (lo + hi)) {
    if (r(mid) < 0.0) lo = mid; else hi = mid;
  }
  root = 0.5 * (lo + hi);
  return true;
}

double two_function_equilibrium(const Nemfet& dev, double v_abs,
                                double x_state) {
  double x = 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& b : dev.branch_table().branches) {
    double root = 0.0;
    if (!two_function_branch_root(dev, b, v_abs, root)) continue;
    const double dist = std::abs(root - x_state);
    if (dist < best || (dist == best && root < x)) {
      x = root;
      best = dist;
    }
  }
  return x;
}

TEST(NemfetEquilibrium, OnePassResidualAndSlopeKeepTheRootsBitwise) {
  for (const NemsParams& p :
       {tech::nems_90nm(), soft_contact_card(), monostable_card()}) {
    for (double width : {1.0_um, 0.3_um}) {
      for (double x_state : {0.0, p.gap0}) {
        Nemfet dev("X", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
                   NemsPolarity::kN, p, width);
        dev.set_initial_position(x_state);
        for (double v : equilibrium_sweep(p)) {
          EXPECT_EQ(dev.static_equilibrium(v).x,
                    two_function_equilibrium(dev, v, x_state))
              << "v=" << v << " W=" << width << " x_state=" << x_state
              << " tox=" << p.tox << " contact_k=" << p.contact_k;
        }
      }
    }
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// static_equilibrium keeps each branch's outcome at the last |v| and
// width.  One warm device, driven through exact repeats, width changes
// (setter and bank overlay) and branch-memory switches at a fixed |v|,
// must return bitwise what a fresh device returns.
TEST(NemfetEquilibrium, ReuseMatchesAFreshDeviceBitwise) {
  for (const NemsParams& p :
       {tech::nems_90nm(), soft_contact_card(), monostable_card()}) {
    SCOPED_TRACE(::testing::Message()
                 << "tox=" << p.tox << " contact_k=" << p.contact_k);
    Circuit ckt;
    auto& warm = ckt.add<Nemfet>("X", ckt.node("d"), ckt.node("g"), ckt.gnd(),
                                 NemsPolarity::kN, p, 1.0_um);
    double x_state = 0.0;
    auto solve = [&](double v) {
      Nemfet fresh("F", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
                   NemsPolarity::kN, p, warm.width());
      fresh.set_initial_position(x_state);
      const Nemfet::StaticEq want = fresh.static_equilibrium(v);
      const Nemfet::StaticEq got = warm.static_equilibrium(v);
      EXPECT_TRUE(same_bits(got.x, want.x))
          << "v=" << v << " W=" << warm.width() << " x_state=" << x_state
          << ": " << got.x << " vs fresh " << want.x;
      EXPECT_TRUE(same_bits(got.dx_dv, want.dx_dv))
          << "v=" << v << " W=" << warm.width() << " x_state=" << x_state
          << ": " << got.dx_dv << " vs fresh " << want.dx_dv;
      return want;
    };

    // Zero, a low and a high bias, both sides of each fold and the middle
    // of the hysteresis window.
    std::vector<double> vs = {0.0, 0.25, 1.2};
    const double vpi = p.pull_in_voltage();
    const double vpo = p.pull_out_voltage();
    for (double fold : {vpi, vpo}) {
      if (!(fold > 0.0 && std::isfinite(fold))) continue;
      vs.push_back(fold * (1.0 - 1e-9));
      vs.push_back(fold * (1.0 + 1e-9));
    }
    if (vpo > 0.0 && std::isfinite(vpi)) vs.push_back(0.5 * (vpi + vpo));

    const std::vector<std::function<void()>> width_changes = {
        [&] { warm.set_width(0.3_um); },
        [&] {
          ckt.param_bank().set_value(warm.width_slot(), 0.45_um);
          ckt.notify_params_changed();
        },
        [&] { warm.set_width(1.0_um); },
    };
    // A key without the width would hand these solves the previous
    // width's outcome; the fresh results must differ somewhere for this
    // test to catch that.
    bool width_changes_a_result = false;
    for (double v : vs) {
      for (const auto& change_width : width_changes) {
        for (double xs : {0.0, p.gap0, 0.0}) {
          x_state = xs;
          warm.set_initial_position(xs);
          solve(v);
          solve(v);
        }
        const Nemfet::StaticEq before = solve(v);
        change_width();
        const Nemfet::StaticEq after = solve(v);
        width_changes_a_result |= !same_bits(before.x, after.x) ||
                                  !same_bits(before.dx_dv, after.dx_dv);
      }
    }
    EXPECT_TRUE(width_changes_a_result);
  }
}

// --------------------------------------------- twin key (DESIGN.md §7k)

TEST(NemfetTwinKey, EqualKeysMeanBitwiseEqualEvaluations) {
  // Equal complete inputs must mean bitwise-equal evaluations through
  // every public mutator, for both polarities.  The comparisons also see
  // pairs whose keys differ in one member only (one-sided Vth shift,
  // initial position, discontinuity or accept history), so a key that
  // left out a cap state, x_state_, the Vth shift or the role iterate
  // fails here.
  const NemsParams p = tech::nems_90nm();
  for (NemsPolarity polarity : {NemsPolarity::kN, NemsPolarity::kP}) {
    SCOPED_TRACE(polarity == NemsPolarity::kN ? "n" : "p");
    Circuit ckt;
    auto& a = ckt.add<Nemfet>("XA", ckt.node("da"), ckt.node("ga"),
                              ckt.node("sa"), polarity, p, 1.0_um);
    auto& b = ckt.add<Nemfet>("XB", ckt.node("db"), ckt.node("gb"),
                              ckt.node("sb"), polarity, p, 1.0_um);
    MnaSystem system(ckt);
    const spice::KernelLayout layout(system);
    // Terminals over both actuation directions and the hysteresis window;
    // the beam across the gap and past contact.
    auto draw = [&](std::size_t role, std::mt19937_64& rng) {
      if (role == 3) {
        return std::uniform_real_distribution<double>(0.0, 1.1 * p.gap0)(rng);
      }
      if (role == 4) return std::uniform_real_distribution<double>(-0.5, 0.5)(rng);
      return std::uniform_real_distribution<double>(-0.3, 1.4)(rng);
    };
    auto pick = [](std::initializer_list<double> values, std::mt19937_64& rng) {
      return values.begin()[std::uniform_int_distribution<std::size_t>(
          0, values.size() - 1)(rng)];
    };
    twin_check::TwinKeyProperty<Nemfet, 5> property(
        system, a, b, a.role_unknowns(layout), b.role_unknowns(layout), draw,
        /*seed=*/polarity == NemsPolarity::kN ? 1 : 2);
    property.add_op("set_width", [&](Nemfet& d, std::mt19937_64& rng) {
      d.set_width(pick({0.5_um, 1.0_um, 1.3_um}, rng));
    });
    property.add_op("set_vth_shift", [&](Nemfet& d, std::mt19937_64& rng) {
      d.set_vth_shift(pick({-0.02, 0.0, 0.03}, rng));
    });
    property.add_op("bank overlay", [&](Nemfet& d, std::mt19937_64& rng) {
      ckt.param_bank().set_value(d.width_slot(), pick({0.5_um, 1.0_um}, rng));
      ckt.param_bank().set_value(d.vth_shift_slot(), pick({0.0, 0.03}, rng));
      ckt.notify_params_changed();
    });
    property.add_op("set_initial_position",
                    [&](Nemfet& d, std::mt19937_64& rng) {
                      d.set_initial_position(pick({0.0, 0.3 * p.gap0, p.gap0}, rng));
                    });
    property.add_op("notify_discontinuity",
                    [](Nemfet& d, std::mt19937_64&) { d.notify_discontinuity(); });
    property.add_op("reset_state",
                    [](Nemfet& d, std::mt19937_64&) { d.reset_state(); });
    property.run(600);
    EXPECT_GT(property.equal_keys(), 150);
    EXPECT_GT(property.distinct(), 1000);
  }
}

// ------------------------------------------------------ DC operating point

TEST(NemfetOp, BeamStaysUpBelowPullIn) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(0.2));
  auto& x = ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN,
                            tech::nems_90nm(), 1.0_um);
  MnaSystem system(ckt);
  spice::OpResult op = spice::operating_point(system);
  const double pos = op.x(x.unknown_x());
  EXPECT_LT(pos, 0.5 * tech::nems_90nm().gap0);
  EXPECT_GT(pos, 0.0);  // but slightly deflected
}

TEST(NemfetOp, BeamPullsInAboveVpi) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(1.2));
  auto& x = ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN,
                            tech::nems_90nm(), 1.0_um);
  MnaSystem system(ckt);
  spice::OpResult op = spice::operating_point(system);
  EXPECT_GT(op.x(x.unknown_x()), 0.9 * tech::nems_90nm().gap0);
  // Velocity row pins v = 0 in DC.
  EXPECT_NEAR(op.x(x.unknown_v()), 0.0, 1e-9);
}

// ------------------------------------------------------------- transient

TEST(NemfetTransient, PullInTransitTensOfPicoseconds) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>(
      "Vg", g, ckt.gnd(),
      SourceWave::pulse(0.0, 1.2, 0.1_ns, 5.0_ps, 5.0_ps, 2.0_ns));
  auto& x = ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN,
                            tech::nems_90nm(), 1.0_um);
  MnaSystem system(ckt);
  spice::TransientOptions options;
  options.tstop = 1.0_ns;
  spice::Waveform wave = spice::transient(system, options);

  const std::string xsig = "X1.x";
  const double gap = tech::nems_90nm().gap0;
  // Beam starts up...
  EXPECT_LT(wave.at(xsig, 0.05_ns), 0.2 * gap);
  // ... and is in contact well before 1 ns.
  EXPECT_GT(spice::final_value(wave, xsig), 0.9 * gap);
  const double t_contact =
      spice::cross_time(wave, xsig, 0.9 * gap, spice::Edge::kRising);
  const double transit = t_contact - 0.1_ns;
  EXPECT_LT(transit, 0.3_ns);
  EXPECT_GT(transit, 1.0_ps);
  (void)x;
}

TEST(NemfetTransient, ReleasesWhenGateDrops) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  // High long enough to pull in, then 0 for the rest.
  ckt.add<VoltageSource>(
      "Vg", g, ckt.gnd(),
      SourceWave::pulse(1.2, 0.0, 0.5_ns, 5.0_ps, 5.0_ps, 3.0_ns));
  ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN, tech::nems_90nm(),
                  1.0_um);
  MnaSystem system(ckt);
  spice::TransientOptions options;
  options.tstop = 3.0_ns;
  spice::Waveform wave = spice::transient(system, options);
  const double gap = tech::nems_90nm().gap0;
  EXPECT_GT(wave.at("X1.x", 0.4_ns), 0.9 * gap);  // pulled in while high
  EXPECT_LT(spice::final_value(wave, "X1.x"), 0.3 * gap);  // released
}

TEST(NemfetTransient, PmosPolarityPullsInWithNegativeGate) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  spice::NodeId s = ckt.node("s");
  ckt.add<VoltageSource>("Vs", s, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(0.0));
  ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(0.0));
  auto& x = ckt.add<Nemfet>("X1", d, g, s, NemsPolarity::kP,
                            tech::nems_90nm(), 1.0_um);
  MnaSystem system(ckt);
  spice::OpResult op = spice::operating_point(system);
  // Vgs = -1.2 on a P device: |vgs| far above pull-in.
  EXPECT_GT(op.x(x.unknown_x()), 0.9 * tech::nems_90nm().gap0);
  // And it conducts: current flows from source (1.2 V) to drain.
  EXPECT_GT(std::abs(op.value("i(Vd)")), 1e-5);
}

TEST(NemfetOp, InitialPositionSelectsBranchInHysteresisWindow) {
  const NemsParams p = tech::nems_90nm();
  const double v_mid =
      0.5 * (p.analytic_pull_out_voltage() + p.analytic_pull_in_voltage());
  auto solve_with_start = [&](bool closed) {
    Circuit ckt;
    spice::NodeId d = ckt.node("d");
    spice::NodeId g = ckt.node("g");
    ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(0.05));
    ckt.add<VoltageSource>("Vg", g, ckt.gnd(), SourceWave::dc(v_mid));
    auto& x = ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN, p,
                              1.0_um);
    if (closed) x.set_initially_closed();
    MnaSystem system(ckt);
    spice::OpResult op = spice::operating_point(system);
    return op.x(x.unknown_x());
  };
  EXPECT_LT(solve_with_start(false), 0.5 * p.gap0);
  // At mid-window bias the contact root sits slightly above the (soft)
  // stop, a little short of the full gap.
  EXPECT_GT(solve_with_start(true), 0.8 * p.gap0);
}

}  // namespace
}  // namespace nemsim
