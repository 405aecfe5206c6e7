#include "nemsim/devices/diode.h"

#include <cmath>

#include <sstream>

#include "nemsim/spice/ac.h"
#include "nemsim/util/error.h"
#include "nemsim/util/units.h"

namespace nemsim::devices {

Diode::Diode(std::string name, spice::NodeId anode, spice::NodeId cathode,
             DiodeParams params)
    : Device(std::move(name)), anode_(anode), cathode_(cathode),
      params_(params) {
  require(params_.is > 0.0, "Diode: Is must be positive");
  require(params_.n > 0.0, "Diode: ideality must be positive");
}

void Diode::evaluate(double v, double& i, double& g) const {
  const double nvt = params_.n * phys::thermal_voltage(params_.temp);
  const double arg = v / nvt;
  constexpr double kMaxArg = 40.0;
  if (arg <= kMaxArg) {
    const double e = std::exp(arg);
    i = params_.is * (e - 1.0);
    g = params_.is * e / nvt;
  } else {
    // Linear continuation: value and slope continuous at kMaxArg.
    const double e = std::exp(kMaxArg);
    g = params_.is * e / nvt;
    i = params_.is * (e - 1.0) + g * (v - kMaxArg * nvt);
  }
  i += params_.gmin_shunt * v;
  g += params_.gmin_shunt;
}

template <class Sink>
void Diode::eval(const Sink& k) const {
  const double v = k.xr(0) - k.xr(1);
  double i = 0.0, g = 0.0;
  evaluate(v, i, g);
  k.f(0, i);
  k.f(1, -i);
  k.J(0, 0, g);
  k.J(0, 1, -g);
  k.J(1, 0, -g);
  k.J(1, 1, g);
}

void Diode::stamp(spice::StampContext& ctx) const {
  spice::stamp_roles(*this, ctx);
}

void Diode::kernel_descriptor(const spice::KernelLayout& layout,
                              spice::KernelDescriptor& out) const {
  spice::describe_lanes(*this, layout, "diode", out);
  for (int e = 0; e < 2; ++e) {
    for (int v = 0; v < 2; ++v) out.add_j(e, v);
  }
}

void Diode::stamp_ac(spice::AcStampContext& ctx) const {
  const double v = ctx.v(anode_) - ctx.v(cathode_);
  double i = 0.0, g = 0.0;
  evaluate(v, i, g);
  ctx.stamp_conductance(anode_, cathode_, g);
}

spice::DeviceTopology Diode::topology() const {
  spice::DeviceTopology topo;
  topo.element_letter = 'D';
  const std::size_t a = topo.add_terminal("anode", anode_);
  const std::size_t c = topo.add_terminal("cathode", cathode_);
  // Representative small-signal conductance near zero bias: the shunt
  // plus the junction slope Is/(n vt).
  topo.add_edge(spice::DeviceTopology::EdgeKind::kConductive, a, c)
      .magnitude = params_.gmin_shunt +
                   params_.is / (params_.n *
                                 phys::thermal_voltage(params_.temp));
  return topo;
}

void Diode::interval_transfer(const analyze::IntervalSet& nodes,
                              std::vector<analyze::NodeClaim>& out) const {
  // Passive edge: sign(i) = sign(v), so each terminal obeys the maximum
  // principle against the other.
  out.push_back(
      {anode_, nodes.at(cathode_), analyze::NodeClaim::Kind::kNeighbor});
  out.push_back(
      {cathode_, nodes.at(anode_), analyze::NodeClaim::Kind::kNeighbor});
}

void Diode::interval_check(const analyze::IntervalSet& nodes,
                           std::vector<analyze::RegionVerdict>& out) const {
  const analyze::Interval v = nodes.at(anode_) - nodes.at(cathode_);
  // Far below a junction drop the exponential is off scale: the device
  // only ever conducts its gmin shunt.
  constexpr double kKneeVolts = 0.3;
  if (std::isfinite(v.hi) && v.hi < kKneeVolts) {
    std::ostringstream msg;
    msg << "junction voltage is confined to " << v.to_string()
        << " V, always below the ~" << kKneeVolts
        << " V knee: the diode never forward-biases and acts as a "
        << params_.gmin_shunt << " S shunt — if that is intentional, a "
        << "resistor says so more cheaply";
    out.push_back({name(), "diode-never-forward", msg.str(),
                   lint::LintSeverity::kHint, "", {}});
  }
}

void Diode::self_check(const lint::DeviceCheckContext& ctx,
                       std::vector<lint::LintFinding>& out) const {
  (void)ctx;
  if (params_.temp <= 0.0) {
    std::ostringstream msg;
    msg << "temperature " << params_.temp << " K is non-positive; the "
        << "thermal voltage is undefined and the I-V law evaluates to NaN";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
  if (params_.n > 5.0) {
    std::ostringstream msg;
    msg << "ideality factor " << params_.n
        << " exceeds 5; junction diodes sit between 1 and 2";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
  if (params_.gmin_shunt < 0.0) {
    std::ostringstream msg;
    msg << "gmin shunt " << params_.gmin_shunt
        << " S is negative: the convergence aid injects energy";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
}

std::string Diode::netlist_line(
    const std::function<std::string(spice::NodeId)>& node_namer) const {
  std::ostringstream os;
  os << name() << " " << node_namer(anode_) << " " << node_namer(cathode_)
     << " IS=" << params_.is << " N=" << params_.n;
  return os.str();
}

}  // namespace nemsim::devices
