#include "nemsim/devices/controlled.h"

#include "nemsim/spice/ac.h"

#include <cmath>
#include <sstream>

namespace nemsim::devices {

Vcvs::Vcvs(std::string name, spice::NodeId p, spice::NodeId n,
           spice::NodeId cp, spice::NodeId cn, double gain)
    : Device(std::move(name)), p_(p), n_(n), cp_(cp), cn_(cn), gain_(gain) {}

void Vcvs::setup(spice::SetupContext& ctx) {
  branch_ = ctx.add_branch_current(name());
}

template <class Sink>
void Vcvs::eval(const Sink& k) const {
  const double i = k.xr(4);
  k.f(0, i);
  k.f(1, -i);
  k.J(0, 4, 1.0);
  k.J(1, 4, -1.0);

  k.f(4, k.xr(0) - k.xr(1) - gain_ * (k.xr(2) - k.xr(3)));
  k.J(4, 0, 1.0);
  k.J(4, 1, -1.0);
  k.J(4, 2, -gain_);
  k.J(4, 3, gain_);
}

void Vcvs::stamp(spice::StampContext& ctx) const {
  spice::stamp_roles(*this, ctx);
}

void Vcvs::kernel_descriptor(const spice::KernelLayout& layout,
                             spice::KernelDescriptor& out) const {
  spice::describe_lanes(*this, layout, "vcvs", out);
  out.add_j(0, 4);
  out.add_j(1, 4);
  out.add_j(4, 0);
  out.add_j(4, 1);
  out.add_j(4, 2);
  out.add_j(4, 3);
}

void Vcvs::stamp_ac(spice::AcStampContext& ctx) const {
  ctx.add_G(p_, branch_, 1.0);
  ctx.add_G(n_, branch_, -1.0);
  ctx.add_G(branch_, p_, 1.0);
  ctx.add_G(branch_, n_, -1.0);
  ctx.add_G(branch_, cp_, -gain_);
  ctx.add_G(branch_, cn_, gain_);
}

spice::DeviceTopology Vcvs::topology() const {
  spice::DeviceTopology topo;
  topo.element_letter = 'E';
  const std::size_t p = topo.add_terminal("p", p_);
  const std::size_t n = topo.add_terminal("n", n_);
  // Control terminals sense voltage only — they provide no branch, so a
  // node touched only by them is correctly reported floating.
  topo.add_terminal("cp", cp_);
  topo.add_terminal("cn", cn_);
  topo.add_edge(spice::DeviceTopology::EdgeKind::kVoltage, p, n);
  return topo;
}

void Vcvs::interval_transfer(const analyze::IntervalSet& nodes,
                             std::vector<analyze::NodeClaim>& out) const {
  // v(p) - v(n) = gain * (v(cp) - v(cn)) exactly.
  const analyze::Interval ctrl =
      (nodes.at(cp_) - nodes.at(cn_)).scaled(gain_);
  out.push_back(
      {p_, nodes.at(n_) + ctrl, analyze::NodeClaim::Kind::kRelation});
  out.push_back(
      {n_, nodes.at(p_) - ctrl, analyze::NodeClaim::Kind::kRelation});
}

std::string Vcvs::netlist_line(
    const std::function<std::string(spice::NodeId)>& node_namer) const {
  std::ostringstream os;
  os << name() << " " << node_namer(p_) << " " << node_namer(n_) << " "
     << node_namer(cp_) << " " << node_namer(cn_) << " " << gain_;
  return os.str();
}

Vccs::Vccs(std::string name, spice::NodeId p, spice::NodeId n,
           spice::NodeId cp, spice::NodeId cn, double gm)
    : Device(std::move(name)), p_(p), n_(n), cp_(cp), cn_(cn), gm_(gm) {}

template <class Sink>
void Vccs::eval(const Sink& k) const {
  const double i = gm_ * (k.xr(2) - k.xr(3));
  k.f(0, i);
  k.f(1, -i);
  k.J(0, 2, gm_);
  k.J(0, 3, -gm_);
  k.J(1, 2, -gm_);
  k.J(1, 3, gm_);
}

void Vccs::stamp(spice::StampContext& ctx) const {
  spice::stamp_roles(*this, ctx);
}

void Vccs::kernel_descriptor(const spice::KernelLayout& layout,
                             spice::KernelDescriptor& out) const {
  spice::describe_lanes(*this, layout, "vccs", out);
  out.add_j(0, 2);
  out.add_j(0, 3);
  out.add_j(1, 2);
  out.add_j(1, 3);
}

void Vccs::stamp_ac(spice::AcStampContext& ctx) const {
  ctx.add_G(p_, cp_, gm_);
  ctx.add_G(p_, cn_, -gm_);
  ctx.add_G(n_, cp_, -gm_);
  ctx.add_G(n_, cn_, gm_);
}

spice::DeviceTopology Vccs::topology() const {
  spice::DeviceTopology topo;
  topo.element_letter = 'G';
  const std::size_t p = topo.add_terminal("p", p_);
  const std::size_t n = topo.add_terminal("n", n_);
  topo.add_terminal("cp", cp_);
  topo.add_terminal("cn", cn_);
  topo.add_edge(spice::DeviceTopology::EdgeKind::kCurrent, p, n).magnitude =
      std::abs(gm_);
  return topo;
}

std::string Vccs::netlist_line(
    const std::function<std::string(spice::NodeId)>& node_namer) const {
  std::ostringstream os;
  os << name() << " " << node_namer(p_) << " " << node_namer(n_) << " "
     << node_namer(cp_) << " " << node_namer(cn_) << " " << gm_;
  return os.str();
}

}  // namespace nemsim::devices
