#include "nemsim/devices/nemfet.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "nemsim/devices/ekv.h"

#include "nemsim/spice/ac.h"
#include "nemsim/util/error.h"
#include "nemsim/util/units.h"

namespace nemsim::devices {

using ekv::sigmoid;
using ekv::softplus;

double NemsParams::analytic_pull_in_voltage() const {
  const double d = electrostatic_gap();
  return std::sqrt(8.0 * spring_k * d * d * d /
                   (27.0 * phys::kEps0 * area));
}

double NemsParams::analytic_pull_out_voltage() const {
  // At contact the remaining electrostatic gap is tox/eps_ox; release
  // happens when Fe there can no longer hold the stretched spring.
  const double d_contact = tox / eps_ox;
  const double fe_per_v2 = 0.5 * phys::kEps0 * area / (d_contact * d_contact);
  return std::sqrt(spring_k * gap0 / fe_per_v2);
}

double NemsParams::pull_in_voltage() const {
  return nems_branch_table(*this)->pull_in_voltage(area);
}

double NemsParams::pull_out_voltage() const {
  return nems_branch_table(*this)->pull_out_voltage(area);
}

namespace {

// Mechanics of the beam at the reference width.  The Nemfet members scale
// every force by w / w_ref, which cancels in W.
struct CardMechanics {
  const NemsParams& p;

  double gap(double x) const {
    return p.gap_softness * softplus((p.gap0 - x) / p.gap_softness) +
           p.tox / p.eps_ox;
  }
  double spring(double x) const {
    return p.spring_k * x +
           p.contact_k * p.contact_softness *
               softplus((x - p.gap0) / p.contact_softness);
  }
  // W(x) = v^2 * area at an equilibrium.
  double w(double x) const {
    const double d = gap(x);
    return 2.0 * spring(x) * d * d / phys::kEps0;
  }
  // dW/dx * eps0 / (2 d): the sign of dW/dx.
  double rise(double x) const {
    const double dspring =
        p.spring_k +
        p.contact_k * sigmoid((x - p.gap0) / p.contact_softness);
    const double dgap = -sigmoid((p.gap0 - x) / p.gap_softness);
    return dspring * gap(x) + 2.0 * spring(x) * dgap;
  }
};

}  // namespace

NemsBranchTable NemsBranchTable::build(const NemsParams& p) {
  const CardMechanics m{p};
  // Below x_c both softplus arguments lie past +-40, where the smoothing
  // is exponentially small: W is the parallel-plate 2 k x (gap0 + tox /
  // eps_ox - x)^2 / eps0 with its single maximum, which 256 samples
  // resolve.  Near contact the smoothing widths set the scale.  Past
  // gap0 + 60 gap_softness, dgap/dx < e^-60 and the springs make W rise
  // for good, so the last branch is unbounded.
  const double soft_max = std::max(p.gap_softness, p.contact_softness);
  const double soft_min = std::min(p.gap_softness, p.contact_softness);
  const double x_c = std::max(0.0, p.gap0 - 40.0 * soft_max);
  const double x_end = p.gap0 + 60.0 * p.gap_softness;
  std::vector<double> grid;
  constexpr int kCoarse = 256;
  if (x_c > 0.0) {
    for (int i = 0; i < kCoarse; ++i) grid.push_back(x_c * i / kCoarse);
  }
  const auto fine = static_cast<std::size_t>(
      std::ceil(8.0 * (x_end - x_c) / soft_min));
  for (std::size_t i = 0; i <= fine; ++i) {
    grid.push_back(x_c + (x_end - x_c) * static_cast<double>(i) /
                             static_cast<double>(fine));
  }

  // Refines a sign change of dW/dx in (a, b) to adjacent doubles and
  // returns the one on the rising side.
  auto fold = [&](double a, double b) {
    const bool rising_left = m.rise(a) > 0.0;
    for (double mid = 0.5 * (a + b); mid > a && mid < b;
         mid = 0.5 * (a + b)) {
      if ((m.rise(mid) > 0.0) == rising_left) a = mid; else b = mid;
    }
    return rising_left ? a : b;
  };

  NemsBranchTable table;
  Branch* open = nullptr;
  auto add_sample = [&](double x) {
    if (!open->x.empty() && !(x > open->x.back())) return;
    open->x.push_back(x);
    open->w.push_back(m.w(x));
  };
  bool rising = false;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const bool r = m.rise(grid[i]) > 0.0;
    if (r && !rising) {  // pull-out fold (or x = 0): a branch starts
      table.branches.emplace_back();
      open = &table.branches.back();
      add_sample(i == 0 ? grid[0] : fold(grid[i - 1], grid[i]));
    } else if (!r && rising) {  // pull-in fold: the branch ends
      add_sample(fold(grid[i - 1], grid[i]));
      open = nullptr;
    }
    if (r) add_sample(grid[i]);
    rising = r;
  }
  if (open) open->unbounded = true;
  return table;
}

double NemsBranchTable::pull_in_voltage(double area) const {
  if (branches.empty() || branches.front().unbounded) {
    return std::numeric_limits<double>::infinity();
  }
  return std::sqrt(branches.front().w.back() / area);
}

double NemsBranchTable::pull_out_voltage(double area) const {
  if (branches.size() < 2) return 0.0;
  return std::sqrt(branches.back().w.front() / area);
}

std::shared_ptr<const NemsBranchTable> nems_branch_table(const NemsParams& p) {
  // Keyed by the bit patterns of the fields the table depends on.  Parallel
  // sweeps build devices on worker threads, hence the lock; the cap keeps
  // a long parameter scan from growing the memo (devices keep their
  // tables alive on their own).
  using Key = std::array<std::uint64_t, 7>;
  const Key key = {std::bit_cast<std::uint64_t>(p.gap0),
                   std::bit_cast<std::uint64_t>(p.spring_k),
                   std::bit_cast<std::uint64_t>(p.contact_k),
                   std::bit_cast<std::uint64_t>(p.contact_softness),
                   std::bit_cast<std::uint64_t>(p.gap_softness),
                   std::bit_cast<std::uint64_t>(p.tox),
                   std::bit_cast<std::uint64_t>(p.eps_ox)};
  constexpr std::size_t kCapacity = 64;
  static std::mutex mutex;
  static std::map<Key, std::shared_ptr<const NemsBranchTable>> memo;
  const std::lock_guard<std::mutex> lock(mutex);
  if (auto it = memo.find(key); it != memo.end()) return it->second;
  if (memo.size() >= kCapacity) memo.clear();
  auto table =
      std::make_shared<const NemsBranchTable>(NemsBranchTable::build(p));
  memo.emplace(key, table);
  return table;
}

Nemfet::Nemfet(std::string name, spice::NodeId drain, spice::NodeId gate,
               spice::NodeId source, NemsPolarity polarity, NemsParams params,
               double width)
    : Device(std::move(name)), d_(drain), g_(gate), s_(source),
      polarity_(polarity), params_(params),
      branches_(nems_branch_table(params_)), w_(width) {
  require(width > 0.0, "Nemfet: width must be positive");
  require(params_.gap0 > 0.0 && params_.tox > 0.0,
          "Nemfet: geometry must be positive");
  require(params_.spring_k > 0.0 && params_.mass > 0.0 &&
              params_.damping >= 0.0,
          "Nemfet: mechanical parameters must be positive");
  cg_gap_.set_capacitance(gate_capacitance(0.0));
  cgd_ov_.set_capacitance(params_.cov * w_.get());
  cgs_ov_.set_capacitance(params_.cov * w_.get());
  cdb_.set_capacitance(params_.cj * w_.get());
  csb_.set_capacitance(params_.cj * w_.get());
  memo_.branches.resize(branches_->branches.size());
}

void Nemfet::bind_params(spice::ParamBank& bank) {
  vth_shift_.bind(bank, "nems.vth_shift", name());
  w_.bind(bank, "nems.w", name());
}

void Nemfet::on_params_changed() {
  cg_gap_.set_capacitance(gate_capacitance(x_state_));
  cgd_ov_.set_capacitance(params_.cov * w_.get());
  cgs_ov_.set_capacitance(params_.cov * w_.get());
  cdb_.set_capacitance(params_.cj * w_.get());
  csb_.set_capacitance(params_.cj * w_.get());
  touch();
}

void Nemfet::set_width(double width) {
  require(width > 0.0, "Nemfet: width must be positive");
  w_.set(width);
  cg_gap_.set_capacitance(gate_capacitance(x_state_));
  cgd_ov_.set_capacitance(params_.cov * w_.get());
  cgs_ov_.set_capacitance(params_.cov * w_.get());
  cdb_.set_capacitance(params_.cj * w_.get());
  csb_.set_capacitance(params_.cj * w_.get());
}

double Nemfet::air_gap(double x) const {
  // Smooth max(gap0 - x, 0): the beam cannot penetrate the oxide; the
  // softplus keeps the Jacobian continuous through contact.
  const double wg = params_.gap_softness;
  return wg * softplus((params_.gap0 - x) / wg);
}

double Nemfet::electrostatic_force(double v_beam, double x) const {
  const double d = air_gap(x) + params_.tox / params_.eps_ox;
  const double a = params_.area * sw();
  return 0.5 * phys::kEps0 * a * v_beam * v_beam / (d * d);
}

double Nemfet::contact_force(double x) const {
  const double wc = params_.contact_softness;
  return params_.contact_k * sw() * wc *
         softplus((x - params_.gap0) / wc);
}

double Nemfet::gate_capacitance(double x) const {
  const double d = air_gap(x) + params_.tox / params_.eps_ox;
  return phys::kEps0 * params_.area * sw() / d;
}

Nemfet::ChannelEval Nemfet::eval_channel(double vgs, double vds,
                                         double x) const {
  return eval_channel(vgs, vds, air_gap(x),
                      -sigmoid((params_.gap0 - x) / params_.gap_softness));
}

Nemfet::ChannelEval Nemfet::eval_channel(double vgs, double vds, double ga,
                                         double dga_dx) const {
  // Gate-coupling divider: alpha = C_ox / C_stack(x) >= 1.
  const double t_eq = params_.tox / params_.eps_ox;
  const double alpha = (t_eq + ga) / t_eq;
  const double dalpha_dx = dga_dx / t_eq;

  ekv::ChannelBias bias{vgs, vds};
  ekv::ChannelParams cp;
  cp.vth = params_.vth_ch + vth_shift_.get() +
           params_.dvth_per_alpha * (alpha - 1.0);
  cp.n = params_.n_ch * alpha;
  cp.kp = params_.kp;
  cp.w_over_l = w_.get() / params_.l_ch;
  cp.lambda = params_.lambda;
  cp.eta = params_.eta_dibl;
  cp.vt = phys::thermal_voltage(params_.temp);
  const ekv::ChannelResult r = ekv::evaluate(bias, cp);

  ChannelEval out;
  const double gfloor = params_.goff * w_.get();
  out.id = r.id + gfloor * vds;
  out.gm = r.gm;
  out.gds = r.gds + gfloor;
  const double dvth_dx = params_.dvth_per_alpha * dalpha_dx;
  const double dn_dx = params_.n_ch * dalpha_dx;
  out.did_dx = r.did_dvth * dvth_dx + r.did_dn * dn_dx;
  return out;
}

void Nemfet::channel_gradients(double vgs, double vds, double x, double& id,
                               double& gm, double& gds,
                               double& did_dx) const {
  require(vds >= 0.0, "channel_gradients: canonical polarity requires vds >= 0");
  const ChannelEval e = eval_channel(vgs, vds, x);
  id = e.id;
  gm = e.gm;
  gds = e.gds;
  did_dx = e.did_dx;
}

double Nemfet::drain_current(double vgs, double vds, double x) const {
  if (vds < 0.0) {
    return -eval_channel(vgs - vds, -vds, x).id;
  }
  return eval_channel(vgs, vds, x).id;
}

double Nemfet::static_residual(double v_abs, double x) const {
  return params_.spring_k * sw() * x + contact_force(x) -
         electrostatic_force(v_abs, x);
}

Nemfet::ResidualAndSlope Nemfet::static_residual_and_slope(double v_abs,
                                                           double x) const {
  // The residual term for term as static_residual computes it, so both
  // agree bitwise; the slope reuses its air gap and Fe.
  const double s = sw();
  const double k = params_.spring_k * s;
  const double wc = params_.contact_softness;
  const double fc = params_.contact_k * s * wc *
                    softplus((x - params_.gap0) / wc);
  const double d = air_gap(x) + params_.tox / params_.eps_ox;
  const double a = params_.area * s;
  const double fe = 0.5 * phys::kEps0 * a * v_abs * v_abs / (d * d);
  const double dga = -sigmoid((params_.gap0 - x) / params_.gap_softness);
  const double dfe = -2.0 * fe / d * dga;
  const double dfc = params_.contact_k * s *
                     sigmoid((x - params_.gap0) / wc);
  return {k * x + fc - fe, k + dfc - dfe};
}

bool Nemfet::branch_root(const NemsBranchTable::Branch& b, double v_abs,
                         double& root) const {
  auto r = [&](double x) { return static_residual(v_abs, x); };
  double lo = b.x.front();
  const double r_lo = r(lo);
  if (r_lo >= 0.0) {
    // The exactly-unbiased root at 0; elsewhere the branch holds no root.
    root = 0.0;
    return r_lo == 0.0 && lo == 0.0;
  }
  double hi = b.x.back();
  bool bracketed = r(hi) >= 0.0;
  // Past the last sample the contact branch rises without bound: double
  // the bracket until it holds the root.
  for (int i = 0; !bracketed && b.unbounded && i < 64; ++i) {
    lo = hi;
    hi = b.x.front() + 2.0 * (hi - b.x.front());
    bracketed = r(hi) >= 0.0;
  }
  if (!bracketed) return false;

  // Start Newton where the sampled W crosses v^2 * area.
  const double target = v_abs * v_abs * params_.area;
  const auto it = std::upper_bound(b.w.begin(), b.w.end(), target);
  double x = 0.5 * (lo + hi);
  if (it != b.w.begin() && it != b.w.end()) {
    const std::size_t j = static_cast<std::size_t>(it - b.w.begin());
    const double t = (target - b.w[j - 1]) / (b.w[j] - b.w[j - 1]);
    x = b.x[j - 1] + t * (b.x[j] - b.x[j - 1]);
  }

  // Safeguarded Newton: every evaluation tightens [lo, hi] around the
  // root (r(lo) < 0 <= r(hi)); a step that leaves it bisects instead.
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  for (int iter = 0; iter < 50; ++iter) {
    if (!(x > lo && x < hi)) x = 0.5 * (lo + hi);
    const auto [rx, slope] = static_residual_and_slope(v_abs, x);
    if (rx < 0.0) lo = x; else hi = x;
    const double step = rx / slope;
    if (!(std::abs(step) > 4.0 * kEps * std::abs(x))) break;  // converged
    x -= step;
  }
  // Finish where the bisection rule ends: probe past the converged
  // iterate with doubling steps until r changes sign, then bisect down to
  // adjacent doubles and return their midpoint.
  if (x == lo || x == hi) {
    const bool from_above = x == hi;
    for (double s = std::max(std::abs(x) * kEps,
                             std::numeric_limits<double>::min());
         ; s *= 2.0) {
      const double probe = from_above ? hi - s : lo + s;
      if (!(probe > lo && probe < hi)) break;
      const bool below = r(probe) < 0.0;
      if (below) lo = probe; else hi = probe;
      if (below == from_above) break;  // sign changed: tight bracket
    }
  }
  for (double mid = 0.5 * (lo + hi); mid > lo && mid < hi;
       mid = 0.5 * (lo + hi)) {
    if (r(mid) < 0.0) lo = mid; else hi = mid;
  }
  root = 0.5 * (lo + hi);
  return true;
}

Nemfet::StaticEq Nemfet::static_equilibrium(double v_abs) const {
  // Branch memory: the stable root closest to the remembered position,
  // the lower one on a tie.  Solving the branch nearest to it first lets
  // the distance bound skip the others.
  const std::vector<NemsBranchTable::Branch>& branches = branches_->branches;
  auto lower_distance = [&](const NemsBranchTable::Branch& b) {
    if (x_state_ < b.x.front()) return b.x.front() - x_state_;
    if (!b.unbounded && x_state_ > b.x.back()) return x_state_ - b.x.back();
    return 0.0;
  };
  std::size_t nearest = 0;
  for (std::size_t i = 1; i < branches.size(); ++i) {
    if (lower_distance(branches[i]) < lower_distance(branches[nearest])) {
      nearest = i;
    }
  }

  // Reuse: the outcomes stay valid while the bits of the width and of
  // |v| do; a branch the distance bound skipped stays unsolved.
  const auto w_bits = std::bit_cast<std::uint64_t>(w_.get());
  const auto v_bits = std::bit_cast<std::uint64_t>(v_abs);
  if (w_bits != memo_.w_bits || v_bits != memo_.v_bits) {
    memo_.w_bits = w_bits;
    memo_.v_bits = v_bits;
    memo_.branches.assign(branches.size(), BranchMemo{});
  }

  BranchMemo* selected = nullptr;
  double x = 0.0;
  double best = std::numeric_limits<double>::infinity();
  auto visit = [&](std::size_t i) {
    BranchMemo& m = memo_.branches[i];
    if (lower_distance(branches[i]) > best) return;
    if (m.outcome == BranchMemo::Outcome::kUnsolved) {
      m.outcome = branch_root(branches[i], v_abs, m.root)
                      ? BranchMemo::Outcome::kRoot
                      : BranchMemo::Outcome::kNoRoot;
    }
    if (m.outcome != BranchMemo::Outcome::kRoot) return;
    const double dist = std::abs(m.root - x_state_);
    if (dist < best || (dist == best && m.root < x)) {
      x = m.root;
      best = dist;
      selected = &m;
    }
  };
  if (!branches.empty()) visit(nearest);
  for (std::size_t i = 0; i < branches.size(); ++i) {
    if (i != nearest) visit(i);
  }

  StaticEq eq;
  if (selected == nullptr) {
    // v_abs == 0 and no deflection: the trivial equilibrium.
    eq.x = 0.0;
    eq.dx_dv = 0.0;
    return eq;
  }
  eq.x = x;
  if (!selected->has_dx_dv) {
    // Implicit-function derivative dx/d|v| = (dFe/d|v|) / r'(x); r' > 0
    // on a stable branch, clamped away from the fold singularity.
    const double d = air_gap(eq.x) + params_.tox / params_.eps_ox;
    const double a = params_.area * sw();
    const double dfe_dv = phys::kEps0 * a * v_abs / (d * d);
    const double slope =
        std::max(static_residual_and_slope(v_abs, eq.x).slope,
                 1e-3 * params_.spring_k * sw());
    selected->dx_dv = dfe_dv / slope;
    selected->has_dx_dv = true;
  }
  eq.dx_dv = selected->dx_dv;
  return eq;
}

void Nemfet::setup(spice::SetupContext& ctx) {
  // Displacement: meters; velocity: meters/second.  Row units: the x-row
  // is the kinematic equation (m/s in transient, m/s in DC where it pins
  // v = 0 ... volts-free), the v-row is the force balance (newtons).
  ux_ = ctx.add_internal(name() + ".x", /*abstol=*/1e-13,
                         /*row_abstol=*/1e-4,
                         /*max_newton_step=*/params_.gap0 * 0.25,
                         /*initial_guess=*/initial_position_);
  uv_ = ctx.add_internal(name() + ".v", /*abstol=*/1e-6,
                         /*row_abstol=*/1e-15 * std::max(1.0, sw()),
                         /*max_newton_step=*/0.0,
                         /*initial_guess=*/0.0);
}

template <class Sink>
void Nemfet::eval(const Sink& k) const {
  const double sign = polarity_ == NemsPolarity::kN ? 1.0 : -1.0;
  const double x = k.xr(3);
  const double vel = k.xr(4);

  // ---- Channel current (canonical polarity with source/drain swap) ----
  int nd = 0, ns = 2;
  double vds = sign * (k.xr(nd) - k.xr(ns));
  if (vds < 0.0) {
    std::swap(nd, ns);
    vds = -vds;
  }
  const double vgs = sign * (k.xr(1) - k.xr(ns));
  // Air gap and its slope, shared by the channel and the beam mechanics.
  const double ga = air_gap(x);
  const double dga_dx = -sigmoid((params_.gap0 - x) / params_.gap_softness);
  const ChannelEval ch = eval_channel(vgs, vds, ga, dga_dx);

  k.f(nd, sign * ch.id);
  k.f(ns, -sign * ch.id);
  k.J(nd, 1, ch.gm);
  k.J(nd, nd, ch.gds);
  k.J(nd, ns, -(ch.gm + ch.gds));
  k.J(ns, 1, -ch.gm);
  k.J(ns, nd, -ch.gds);
  k.J(ns, ns, ch.gm + ch.gds);
  k.J(nd, 3, sign * ch.did_dx);
  k.J(ns, 3, -sign * ch.did_dx);

  // ---- Mechanics (actuation voltage = beam-to-source) ----
  const double vgf = sign * (k.xr(1) - k.xr(ns));

  if (k.dc()) {
    // Velocity is zero in statics.
    k.f(3, vel);
    k.J(3, 4, 1.0);

    // Pin x to the stable static-equilibrium branch (see the helper's
    // comment: raw Newton cannot cross the pull-in fold).  Row:
    //   x - x_dc(|vgf|) = 0.
    const StaticEq eq = static_equilibrium(std::abs(vgf));
    const double dsign = sign * (vgf >= 0.0 ? 1.0 : -1.0);
    k.f(4, x - eq.x);
    k.J(4, 3, 1.0);
    k.J(4, 1, -eq.dx_dv * dsign);
    k.J(4, ns, eq.dx_dv * dsign);
  } else {
    const double s = sw();
    const double d_el = ga + params_.tox / params_.eps_ox;
    const double a = params_.area * s;
    const double fe = 0.5 * phys::kEps0 * a * vgf * vgf / (d_el * d_el);
    const double dfe_dx = -2.0 * fe / d_el * dga_dx;
    const double dfe_dvgf = phys::kEps0 * a * vgf / (d_el * d_el);

    const double ks = params_.spring_k * s;
    const double fc = contact_force(x);
    const double dfc_dx = params_.contact_k * s *
                          sigmoid((x - params_.gap0) / params_.contact_softness);

    // Backward Euler on the beam ODE (numerically damped: no spurious
    // contact bounce from trapezoidal ringing).
    const double dt = k.dt();
    // Kinematics: (x - x0)/dt - v = 0.
    k.f(3, (x - x_state_) / dt - vel);
    k.J(3, 3, 1.0 / dt);
    k.J(3, 4, -1.0);

    // Momentum: m (v - v0)/dt + c v + k x + Fc - Fe = 0.
    const double m = params_.mass * s;
    const double c = params_.damping * s;
    k.f(4, m * (vel - v_state_) / dt + c * vel + ks * x + fc - fe);
    k.J(4, 4, m / dt + c);
    k.J(4, 3, ks + dfc_dx - dfe_dx);
    k.J(4, 1, -dfe_dvgf * sign);
    k.J(4, ns, dfe_dvgf * sign);
  }

  // ---- Capacitances ----
  cg_gap_.eval(k, 1, 2);
  cgs_ov_.eval(k, 1, 2);
  cgd_ov_.eval(k, 1, 0);
  cdb_.eval(k, 0, -1);
  csb_.eval(k, 2, -1);
}

void Nemfet::twin_key(spice::TwinKey& key) const {
  static_assert(sizeof(NemsParams) == 22 * sizeof(double),
                "a NemsParams field is missing from the twin key");
  const NemsParams& p = params_;
  key.add(static_cast<std::uint64_t>(polarity_));
  for (double v : {p.gap0, p.spring_k, p.mass, p.damping, p.area,
                   p.contact_k, p.contact_softness, p.gap_softness, p.w_ref,
                   p.tox, p.eps_ox, p.vth_ch, p.n_ch, p.kp, p.lambda,
                   p.eta_dibl, p.dvth_per_alpha, p.l_ch, p.goff, p.cov, p.cj,
                   p.temp}) {
    key.add(v);
  }
  key.add(w_.get());
  key.add(vth_shift_.get());
  key.add(x_state_);
  key.add(v_state_);
  cg_gap_.twin_key(key);
  cgs_ov_.twin_key(key);
  cgd_ov_.twin_key(key);
  cdb_.twin_key(key);
  csb_.twin_key(key);
}

void Nemfet::stamp(spice::StampContext& ctx) const {
  spice::stamp_roles(*this, ctx);
}

void Nemfet::kernel_descriptor(const spice::KernelLayout& layout,
                               spice::KernelDescriptor& out) const {
  spice::describe_lanes(*this, layout, "nemfet", out);
  // Channel rows (drain/source under the symmetric swap) couple to all
  // three terminals and the beam position; the gate row only carries the
  // companion caps; the mechanical rows couple to themselves and to the
  // actuation terminals.
  for (int e : {0, 2}) {
    for (int v : {0, 1, 2, 3}) out.add_j(e, v);
  }
  out.add_j(1, 0);
  out.add_j(1, 1);
  out.add_j(1, 2);
  out.add_j(3, 3);
  out.add_j(3, 4);
  out.add_j(4, 0);
  out.add_j(4, 1);
  out.add_j(4, 2);
  out.add_j(4, 3);
  out.add_j(4, 4);
}

void Nemfet::adopt_state(const Nemfet& twin) {
  x_state_ = twin.x_state_;
  v_state_ = twin.v_state_;
  cg_gap_ = twin.cg_gap_;
  cgs_ov_ = twin.cgs_ov_;
  cgd_ov_ = twin.cgd_ov_;
  cdb_ = twin.cdb_;
  csb_ = twin.csb_;
  touch();
}

void Nemfet::accept_step(const spice::AcceptContext& ctx) {
  x_state_ = ctx.x(ux_);
  v_state_ = ctx.x(uv_);
  // Quasi-static update of the moving-plate capacitor.
  cg_gap_.set_capacitance(gate_capacitance(x_state_));
  cg_gap_.accept(ctx, ctx.v(g_) - ctx.v(s_));
  cgs_ov_.accept(ctx, ctx.v(g_) - ctx.v(s_));
  cgd_ov_.accept(ctx, ctx.v(g_) - ctx.v(d_));
  cdb_.accept(ctx, ctx.v(d_));
  csb_.accept(ctx, ctx.v(s_));
  touch();
}

void Nemfet::reset_state() {
  x_state_ = initial_position_;
  v_state_ = 0.0;
  cg_gap_.reset();
  cg_gap_.set_capacitance(gate_capacitance(x_state_));
  cgs_ov_.reset();
  cgd_ov_.reset();
  cdb_.reset();
  csb_.reset();
  touch();
}

void Nemfet::notify_discontinuity() {
  cg_gap_.discontinuity();
  cgs_ov_.discontinuity();
  cgd_ov_.discontinuity();
  cdb_.discontinuity();
  csb_.discontinuity();
  touch();
}

void Nemfet::stamp_ac(spice::AcStampContext& ctx) const {
  const double sign = polarity_ == NemsPolarity::kN ? 1.0 : -1.0;
  const double x = ctx.x(ux_);

  // ---- Channel small-signal (same swap rules as the transient stamp) --
  spice::NodeId nd = d_;
  spice::NodeId ns = s_;
  double vds = sign * (ctx.v(nd) - ctx.v(ns));
  if (vds < 0.0) {
    std::swap(nd, ns);
    vds = -vds;
  }
  const double vgs = sign * (ctx.v(g_) - ctx.v(ns));
  const ChannelEval ch = eval_channel(vgs, vds, x);

  ctx.add_G(nd, g_, ch.gm);
  ctx.add_G(nd, nd, ch.gds);
  ctx.add_G(nd, ns, -(ch.gm + ch.gds));
  ctx.add_G(ns, g_, -ch.gm);
  ctx.add_G(ns, nd, -ch.gds);
  ctx.add_G(ns, ns, ch.gm + ch.gds);
  ctx.add_G(nd, ux_, sign * ch.did_dx);
  ctx.add_G(ns, ux_, -sign * ch.did_dx);

  // ---- Mechanics: x' - v = 0 and m v' + c v + k x + Fc - Fe = 0 -------
  const double vgf = sign * (ctx.v(g_) - ctx.v(ns));
  const double d_el = air_gap(x) + params_.tox / params_.eps_ox;
  const double a = params_.area * sw();
  const double fe = 0.5 * phys::kEps0 * a * vgf * vgf / (d_el * d_el);
  const double dga_dx = -sigmoid((params_.gap0 - x) / params_.gap_softness);
  const double dfe_dx = -2.0 * fe / d_el * dga_dx;
  const double dfe_dvgf = phys::kEps0 * a * vgf / (d_el * d_el);
  const double k = params_.spring_k * sw();
  const double dfc_dx = params_.contact_k * sw() *
                        sigmoid((x - params_.gap0) / params_.contact_softness);

  ctx.add_C(ux_, ux_, 1.0);
  ctx.add_G(ux_, uv_, -1.0);

  ctx.add_C(uv_, uv_, params_.mass * sw());
  ctx.add_G(uv_, uv_, params_.damping * sw());
  ctx.add_G(uv_, ux_, k + dfc_dx - dfe_dx);
  ctx.add_G(uv_, g_, -dfe_dvgf * sign);
  ctx.add_G(uv_, ns, dfe_dvgf * sign);

  // ---- Capacitances at the bias position ------------------------------
  ctx.stamp_capacitance(g_, s_, gate_capacitance(x) + params_.cov * w_.get());
  ctx.stamp_capacitance(g_, d_, params_.cov * w_.get());
  ctx.stamp_capacitance(d_, spice::kGround, params_.cj * w_.get());
  ctx.stamp_capacitance(s_, spice::kGround, params_.cj * w_.get());
}

spice::DeviceTopology Nemfet::topology() const {
  using EdgeKind = spice::DeviceTopology::EdgeKind;
  spice::DeviceTopology topo;
  topo.element_letter = 'X';
  const std::size_t d = topo.add_terminal("drain", d_);
  const std::size_t g = topo.add_terminal("gate", g_);
  const std::size_t s = topo.add_terminal("source", s_);
  const std::size_t b = topo.add_terminal("bulk", spice::kGround);
  // The tunneling/Brownian floor (goff) keeps the channel conductive
  // even with the beam up, so drain-source is a real DC path.  The
  // magnitude is the representative on-state conductance ~ KP W/L.
  topo.add_edge(EdgeKind::kConductive, d, s).magnitude =
      params_.kp * w_.get() / params_.l_ch;
  topo.add_edge(EdgeKind::kCapacitive, g, s).magnitude =  // stack + overlap
      gate_capacitance(x_state_) + params_.cov * w_.get();
  topo.add_edge(EdgeKind::kCapacitive, g, d).magnitude =  // overlap
      params_.cov * w_.get();
  topo.add_edge(EdgeKind::kCapacitive, d, b).magnitude = params_.cj * w_.get();
  topo.add_edge(EdgeKind::kCapacitive, s, b).magnitude = params_.cj * w_.get();
  return topo;
}

void Nemfet::interval_transfer(const analyze::IntervalSet& nodes,
                               std::vector<analyze::NodeClaim>& out) const {
  // Like the MOSFET channel: passive drain-source path (EKV + goff
  // floor), gate couples only through the beam capacitances.
  out.push_back({d_, nodes.at(s_), analyze::NodeClaim::Kind::kNeighbor});
  out.push_back({s_, nodes.at(d_), analyze::NodeClaim::Kind::kNeighbor});
}

void Nemfet::interval_check(const analyze::IntervalSet& nodes,
                            std::vector<analyze::RegionVerdict>& out) const {
  // Actuation magnitude |vgf| = |v(gate) - v(source)| with the canonical
  // source picked by the drain/source swap.  Which terminal ends up as
  // source depends on the solution, so bound over both pairings: the
  // true |vgf| can never exceed the larger upper bound nor fall below
  // the smaller lower bound.
  const analyze::Interval agd = (nodes.at(g_) - nodes.at(d_)).abs();
  const analyze::Interval ags = (nodes.at(g_) - nodes.at(s_)).abs();
  const double v_abs_hi = std::max(agd.hi, ags.hi);
  const double v_abs_lo = std::min(agd.lo, ags.lo);

  // Fold voltages of the model the solver runs, from the card's branch
  // table.  The only band is kFoldBand: the solved actuation carries
  // Newton's reltol (1e-7), and static_equilibrium still finds a branch
  // root within 1e-9 of its fold (NemfetEquilibrium property tests), so
  // a bias pinned closer to a fold than this is judged on neither side.
  constexpr double kFoldBand = 1e-6;
  const std::vector<NemsBranchTable::Branch>& branches = branches_->branches;
  const double vpi = branches_->pull_in_voltage(params_.area);
  const double vpo = branches_->pull_out_voltage(params_.area);
  const double pull_in_floor = (1.0 - kFoldBand) * vpi;
  const double pull_in_ceiling = (1.0 + kFoldBand) * vpi;
  const double hold_ceiling = (1.0 + kFoldBand) * vpo;
  const bool open0 = initial_position_ < 0.5 * params_.gap0;
  const double half_gap = 0.5 * params_.gap0;
  const double inf = std::numeric_limits<double>::infinity();
  // The enclosures below need the open branch to end on the open half of
  // the gap and every later branch to start on the closed half.
  const bool folds_split_gap = branches.size() >= 2 &&
                               branches[0].x.back() < half_gap &&
                               branches[1].x.front() >= half_gap;

  if (open0 && folds_split_gap && std::isfinite(v_abs_hi) &&
      v_abs_hi < pull_in_floor) {
    std::ostringstream msg;
    msg << "actuation |v(gate)-v(source)| is confined to [" << v_abs_lo
        << ", " << v_abs_hi << "] V, always below the pull-in voltage "
        << vpi << " V with the beam starting open: the beam can never "
        << "pull in and the channel stays on its deeply-off branch — raise "
        << "the gate swing or soften the spring";
    out.push_back({name(), "nemfet-never-actuates", msg.str(),
                   lint::LintSeverity::kWarning, name() + ".x",
                   analyze::Interval{-inf, half_gap}});
  } else if (folds_split_gap &&
             v_abs_lo > (open0 ? std::max(pull_in_ceiling, hold_ceiling)
                                 : hold_ceiling)) {
    std::ostringstream msg;
    msg << "actuation |v(gate)-v(source)| never falls below " << v_abs_lo
        << " V, above the " << (open0 ? "pull-in and pull-out" : "pull-out")
        << " voltage " << (open0 ? std::max(vpi, vpo) : vpo)
        << " V: the beam "
        << (open0 ? "pulls in at the first solve and " : "")
        << "can never release — the device is a closed switch, not a "
        << "switch";
    out.push_back({name(), "nemfet-never-releases", msg.str(),
                   lint::LintSeverity::kWarning, name() + ".x",
                   analyze::Interval{half_gap, inf}});
  }

  if (branches.size() >= 2 && std::isfinite(v_abs_hi) &&
      v_abs_lo > hold_ceiling && v_abs_hi < pull_in_floor) {
    std::ostringstream msg;
    msg << "actuation |v(gate)-v(source)| stays inside the hysteresis "
        << "window (V_PO, V_PI) = (" << vpo << ", " << vpi
        << ") V: both beam branches remain stable, so the device latches "
        << "whichever branch it started on ("
        << (open0 ? "open" : "closed")
        << ") and no input in this deck can toggle it";
    out.push_back({name(), "nemfet-hysteresis-latched", msg.str(),
                   lint::LintSeverity::kHint, "", {}});
  }
}

void Nemfet::self_check(const lint::DeviceCheckContext& ctx,
                        std::vector<lint::LintFinding>& out) const {
  // Positivity is enforced at construction; these are the constructible-
  // but-out-of-NEMS-range values (paper regime: nm gaps, N/m springs,
  // attogram beams).
  if (params_.gap0 > 1e-6) {
    std::ostringstream msg;
    msg << "rest air gap GAP0 = " << params_.gap0
        << " m exceeds 1 um; NEMS gaps are nanometers — a unit suffix "
        << "was likely dropped";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
  if (params_.spring_k > 1e5) {
    std::ostringstream msg;
    msg << "beam stiffness K = " << params_.spring_k
        << " N/m exceeds 100 kN/m; suspended-beam stiffness is of order "
        << "1..100 N/m";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
  if (params_.mass > 1e-12) {
    std::ostringstream msg;
    msg << "beam mass M = " << params_.mass
        << " kg exceeds 1 ng; NEMS beams weigh atto- to femtograms";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
  if (params_.temp <= 0.0) {
    std::ostringstream msg;
    msg << "temperature " << params_.temp << " K is non-positive; the "
        << "thermal voltage is undefined";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
  const double vpi = params_.analytic_pull_in_voltage();
  if (ctx.supply_rail > 0.0 && vpi > ctx.supply_rail) {
    std::ostringstream msg;
    msg << "analytic pull-in voltage " << vpi
        << " V exceeds the largest supply magnitude " << ctx.supply_rail
        << " V: the beam can never actuate and the device is stuck in "
        << "the off branch";
    out.push_back({lint::LintSeverity::kWarning, "pull-in-above-rail", "",
                   msg.str()});
  }
}

std::string Nemfet::netlist_line(
    const std::function<std::string(spice::NodeId)>& node_namer) const {
  std::ostringstream os;
  os << name() << " " << node_namer(d_) << " " << node_namer(g_) << " "
     << node_namer(s_) << " "
     << (polarity_ == NemsPolarity::kN ? "NEMFET_N" : "NEMFET_P")
     << " W=" << w_.get() << " GAP0=" << params_.gap0 << " K=" << params_.spring_k
     << " M=" << params_.mass << " VPI="
     << params_.analytic_pull_in_voltage();
  return os.str();
}

}  // namespace nemsim::devices
