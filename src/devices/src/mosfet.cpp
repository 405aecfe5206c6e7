#include "nemsim/devices/mosfet.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>

#include "nemsim/spice/ac.h"
#include "nemsim/util/error.h"
#include "nemsim/util/units.h"

namespace nemsim::devices {

Mosfet::Mosfet(std::string name, spice::NodeId drain, spice::NodeId gate,
               spice::NodeId source, MosPolarity polarity, MosParams params,
               double width, double length)
    : Device(std::move(name)), d_(drain), g_(gate), s_(source),
      polarity_(polarity), params_(params), w_(width), l_(length) {
  require(width > 0.0 && length > 0.0, "Mosfet: W and L must be positive");
  refresh_capacitances();
}

void Mosfet::bind_params(spice::ParamBank& bank) {
  vth_shift_.bind(bank, "mos.vth_shift", name());
  w_.bind(bank, "mos.w", name());
}

void Mosfet::on_params_changed() {
  refresh_capacitances();
  touch();
}

void Mosfet::set_width(double width) {
  require(width > 0.0, "Mosfet: W must be positive");
  w_.set(width);
  refresh_capacitances();
}

void Mosfet::refresh_capacitances() {
  const double cgate_half = 0.5 * params_.cox_area * w_.get() * l_;
  cgs_.set_capacitance(cgate_half + params_.cov * w_.get());
  cgd_.set_capacitance(cgate_half + params_.cov * w_.get());
  cdb_.set_capacitance(params_.cj * w_.get());
  csb_.set_capacitance(params_.cj * w_.get());
}

ekv::ChannelParams Mosfet::channel_params() const {
  ekv::ChannelParams cp;
  cp.vth = params_.vth0 + vth_shift_.get();
  cp.n = params_.n;
  cp.kp = params_.kp;
  cp.w_over_l = w_.get() / l_;
  cp.lambda = params_.lambda;
  cp.eta = params_.eta_dibl;
  cp.vt = phys::thermal_voltage(params_.temp);
  return cp;
}

double Mosfet::drain_current(double vgs, double vds) const {
  ekv::ChannelBias bias;
  double sign = 1.0;
  if (vds < 0.0) {
    // Symmetric device: swap source/drain roles.
    bias.vgs = vgs - vds;
    bias.vds = -vds;
    sign = -1.0;
  } else {
    bias.vgs = vgs;
    bias.vds = vds;
  }
  const ekv::ChannelResult r = ekv::evaluate(bias, channel_params());
  return sign * (r.id + params_.goff * w_.get() * bias.vds);
}

template <class Sink>
void Mosfet::eval(const Sink& k) const {
  const double sign = polarity_ == MosPolarity::kNmos ? 1.0 : -1.0;

  // Canonical terminal roles: nd carries positive vds after an optional
  // source/drain swap (the model is symmetric).
  int nd = 0, ns = 2;
  double vds = sign * (k.xr(nd) - k.xr(ns));
  if (vds < 0.0) {
    std::swap(nd, ns);
    vds = -vds;
  }
  const double vgs = sign * (k.xr(1) - k.xr(ns));
  const ekv::ChannelResult r = ekv::evaluate({vgs, vds}, channel_params());

  const double gfloor = params_.goff * w_.get();
  const double id = r.id + gfloor * vds;
  const double gm = r.gm;
  const double gds = r.gds + gfloor;

  // Current of magnitude id flows nd -> ns in sign-space; as computed in
  // the header comment, the sign factors cancel in the Jacobian.
  k.f(nd, sign * id);
  k.f(ns, -sign * id);
  k.J(nd, 1, gm);
  k.J(nd, nd, gds);
  k.J(nd, ns, -(gm + gds));
  k.J(ns, 1, -gm);
  k.J(ns, nd, -gds);
  k.J(ns, ns, gm + gds);

  // Parasitic capacitances (bias-independent).
  cgs_.eval(k, 1, 2);
  cgd_.eval(k, 1, 0);
  cdb_.eval(k, 0, -1);
  csb_.eval(k, 2, -1);
}

void Mosfet::twin_key(spice::TwinKey& key) const {
  static_assert(sizeof(MosParams) == 10 * sizeof(double),
                "a MosParams field is missing from the twin key");
  key.add(static_cast<std::uint64_t>(polarity_));
  for (double v : {params_.vth0, params_.n, params_.kp, params_.lambda,
                   params_.eta_dibl, params_.cox_area, params_.cov,
                   params_.cj, params_.goff, params_.temp}) {
    key.add(v);
  }
  key.add(w_.get());
  key.add(l_);
  key.add(vth_shift_.get());
  cgs_.twin_key(key);
  cgd_.twin_key(key);
  cdb_.twin_key(key);
  csb_.twin_key(key);
}

void Mosfet::stamp(spice::StampContext& ctx) const {
  spice::stamp_roles(*this, ctx);
}

void Mosfet::kernel_descriptor(const spice::KernelLayout& layout,
                               spice::KernelDescriptor& out) const {
  spice::describe_lanes(*this, layout, "mosfet", out);
  // Full 3x3: the source/drain swap plus the companion caps reach every
  // cell across runtime orientations.
  for (int e = 0; e < 3; ++e) {
    for (int v = 0; v < 3; ++v) out.add_j(e, v);
  }
}

void Mosfet::adopt_state(const Mosfet& twin) {
  cgs_ = twin.cgs_;
  cgd_ = twin.cgd_;
  cdb_ = twin.cdb_;
  csb_ = twin.csb_;
  touch();
}

void Mosfet::accept_step(const spice::AcceptContext& ctx) {
  cgs_.accept(ctx, ctx.v(g_) - ctx.v(s_));
  cgd_.accept(ctx, ctx.v(g_) - ctx.v(d_));
  cdb_.accept(ctx, ctx.v(d_));
  csb_.accept(ctx, ctx.v(s_));
  touch();
}

void Mosfet::reset_state() {
  cgs_.reset();
  cgd_.reset();
  cdb_.reset();
  csb_.reset();
  touch();
}

void Mosfet::notify_discontinuity() {
  cgs_.discontinuity();
  cgd_.discontinuity();
  cdb_.discontinuity();
  csb_.discontinuity();
  touch();
}

void Mosfet::stamp_ac(spice::AcStampContext& ctx) const {
  const double sign = polarity_ == MosPolarity::kNmos ? 1.0 : -1.0;
  spice::NodeId nd = d_;
  spice::NodeId ns = s_;
  double vds = sign * (ctx.v(nd) - ctx.v(ns));
  if (vds < 0.0) {
    std::swap(nd, ns);
    vds = -vds;
  }
  const double vgs = sign * (ctx.v(g_) - ctx.v(ns));
  const ekv::ChannelResult r = ekv::evaluate({vgs, vds}, channel_params());
  const double gm = r.gm;
  const double gds = r.gds + params_.goff * w_.get();

  // Same sign-cancelled pattern as the large-signal stamp.
  ctx.add_G(nd, g_, gm);
  ctx.add_G(nd, nd, gds);
  ctx.add_G(nd, ns, -(gm + gds));
  ctx.add_G(ns, g_, -gm);
  ctx.add_G(ns, nd, -gds);
  ctx.add_G(ns, ns, gm + gds);

  ctx.stamp_capacitance(g_, s_, cgs_.capacitance());
  ctx.stamp_capacitance(g_, d_, cgd_.capacitance());
  ctx.stamp_capacitance(d_, spice::kGround, cdb_.capacitance());
  ctx.stamp_capacitance(s_, spice::kGround, csb_.capacitance());
}

spice::DeviceTopology Mosfet::topology() const {
  using EdgeKind = spice::DeviceTopology::EdgeKind;
  spice::DeviceTopology topo;
  topo.element_letter = 'M';
  const std::size_t d = topo.add_terminal("drain", d_);
  const std::size_t g = topo.add_terminal("gate", g_);
  const std::size_t s = topo.add_terminal("source", s_);
  // Bulk is tied to ground; the junction caps land there.
  const std::size_t b = topo.add_terminal("bulk", spice::kGround);
  // Channel magnitude: representative on-state conductance ~ KP W/L.
  topo.add_edge(EdgeKind::kConductive, d, s).magnitude =
      params_.kp * w_.get() / l_;
  topo.add_edge(EdgeKind::kCapacitive, g, d).magnitude = cgd_.capacitance();
  topo.add_edge(EdgeKind::kCapacitive, g, s).magnitude = cgs_.capacitance();
  topo.add_edge(EdgeKind::kCapacitive, d, b).magnitude = cdb_.capacitance();
  topo.add_edge(EdgeKind::kCapacitive, s, b).magnitude = csb_.capacitance();
  return topo;
}

void Mosfet::interval_transfer(const analyze::IntervalSet& nodes,
                               std::vector<analyze::NodeClaim>& out) const {
  // The channel (EKV + goff floor) is passive — current sign follows
  // vds even through the source/drain swap — so the maximum principle
  // holds between drain and source.  The gate only couples capacitively.
  out.push_back({d_, nodes.at(s_), analyze::NodeClaim::Kind::kNeighbor});
  out.push_back({s_, nodes.at(d_), analyze::NodeClaim::Kind::kNeighbor});
}

void Mosfet::interval_check(const analyze::IntervalSet& nodes,
                            std::vector<analyze::RegionVerdict>& out) const {
  const double sign = polarity_ == MosPolarity::kNmos ? 1.0 : -1.0;
  // Canonical gate drive after the source/drain swap: the source is the
  // lower terminal in sign-space, so vgs = max over both pairings of
  // sign * (v(gate) - v(terminal)); interval max is endpoint-wise.
  const analyze::Interval vgd = (nodes.at(g_) - nodes.at(d_)).scaled(sign);
  const analyze::Interval vgs = (nodes.at(g_) - nodes.at(s_)).scaled(sign);
  const double drive_hi = std::max(vgd.hi, vgs.hi);
  const double drive_lo = std::max(vgd.lo, vgs.lo);
  const double vth = params_.vth0 + vth_shift_.get();
  // Guard band for the EKV interpolation's soft knee around threshold.
  constexpr double kMarginVolts = 0.1;
  if (std::isfinite(drive_hi) && drive_hi < vth - kMarginVolts) {
    std::ostringstream msg;
    msg << "gate drive can never exceed " << drive_hi << " V against a "
        << "threshold of " << vth << " V: the channel is provably always "
        << "subthreshold — only leakage flows, which is either the point "
        << "(keeper, sleep transistor) or a mis-wired gate net";
    out.push_back({name(), "mosfet-always-off", msg.str(),
                   lint::LintSeverity::kHint, "", {}});
  } else if (drive_lo > vth + kMarginVolts) {
    std::ostringstream msg;
    msg << "gate drive never falls below " << drive_lo << " V against a "
        << "threshold of " << vth << " V: the channel is provably always "
        << "on — the device acts as a pass resistor, never as a switch";
    out.push_back({name(), "mosfet-always-on", msg.str(),
                   lint::LintSeverity::kHint, "", {}});
  }
}

void Mosfet::self_check(const lint::DeviceCheckContext& ctx,
                        std::vector<lint::LintFinding>& out) const {
  (void)ctx;
  if (params_.kp <= 0.0) {
    std::ostringstream msg;
    msg << "transconductance parameter KP = " << params_.kp
        << " A/V^2 is non-positive; the channel cannot conduct";
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
  if (params_.lambda < 0.0) {
    std::ostringstream msg;
    msg << "channel-length modulation lambda = " << params_.lambda
        << " 1/V is negative: output conductance would be negative in "
        << "saturation";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
}

std::string Mosfet::netlist_line(
    const std::function<std::string(spice::NodeId)>& node_namer) const {
  std::ostringstream os;
  os << name() << " " << node_namer(d_) << " " << node_namer(g_) << " "
     << node_namer(s_) << " "
     << (polarity_ == MosPolarity::kNmos ? "NMOS" : "PMOS") << " W=" << w_.get()
     << " L=" << l_ << " VTH0=" << params_.vth0 + vth_shift_.get()
     << " KP=" << params_.kp;
  return os.str();
}

}  // namespace nemsim::devices
