#include "nemsim/devices/passives.h"

#include <sstream>

#include "nemsim/spice/ac.h"
#include "nemsim/util/error.h"

namespace nemsim::devices {

using spice::AnalysisMode;

// -------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, spice::NodeId p, spice::NodeId n,
                   double resistance)
    : Device(std::move(name)), p_(p), n_(n), r_(resistance) {
  require(resistance > 0.0, "Resistor: resistance must be positive");
}

void Resistor::set_resistance(double r) {
  require(r > 0.0, "Resistor: resistance must be positive");
  r_.set(r);
}

void Resistor::bind_params(spice::ParamBank& bank) {
  r_.bind(bank, "r.resistance", name());
}

void Resistor::stamp_ac(spice::AcStampContext& ctx) const {
  ctx.stamp_conductance(p_, n_, 1.0 / r_.get());
}

std::string Resistor::netlist_line(
    const std::function<std::string(spice::NodeId)>& node_namer) const {
  return name() + " " + node_namer(p_) + " " + node_namer(n_) + " " +
         std::to_string(r_.get());
}

spice::DeviceTopology Resistor::topology() const {
  spice::DeviceTopology topo;
  topo.element_letter = 'R';
  const std::size_t p = topo.add_terminal("p", p_);
  const std::size_t n = topo.add_terminal("n", n_);
  topo.add_edge(spice::DeviceTopology::EdgeKind::kConductive, p, n)
      .magnitude = 1.0 / r_.get();
  return topo;
}

void Resistor::interval_transfer(const analyze::IntervalSet& nodes,
                                 std::vector<analyze::NodeClaim>& out) const {
  out.push_back({p_, nodes.at(n_), analyze::NodeClaim::Kind::kNeighbor});
  out.push_back({n_, nodes.at(p_), analyze::NodeClaim::Kind::kNeighbor});
}

void Resistor::self_check(const lint::DeviceCheckContext& ctx,
                          std::vector<lint::LintFinding>& out) const {
  (void)ctx;
  // Positivity is enforced at construction; what remains constructible
  // but non-physical are the extremes that wreck Jacobian conditioning.
  const double r = r_.get();
  if (r < 1e-3 || r > 1e12) {
    std::ostringstream msg;
    msg << "resistance " << r << " Ohm is outside the physically "
        << "sensible range [1 mOhm, 1 TOhm]; expect a near-"
        << (r < 1e-3 ? "short" : "open")
        << " and poor Jacobian conditioning";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
}

template <class Sink>
void Resistor::eval(const Sink& k) const {
  const double g = 1.0 / r_.get();
  const double i = g * (k.xr(0) - k.xr(1));
  k.f(0, i);
  k.f(1, -i);
  k.J(0, 0, g);
  k.J(0, 1, -g);
  k.J(1, 0, -g);
  k.J(1, 1, g);
}

void Resistor::stamp(spice::StampContext& ctx) const {
  spice::stamp_roles(*this, ctx);
}

void Resistor::kernel_descriptor(const spice::KernelLayout& layout,
                                 spice::KernelDescriptor& out) const {
  spice::describe_lanes(*this, layout, "resistor", out);
  for (int e = 0; e < 2; ++e) {
    for (int v = 0; v < 2; ++v) out.add_j(e, v);
  }
}

// ------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, spice::NodeId p, spice::NodeId n,
                     double capacitance)
    : Device(std::move(name)),
      p_(p),
      n_(n),
      c_(capacitance),
      companion_(capacitance) {
  require(capacitance >= 0.0, "Capacitor: capacitance must be non-negative");
}

void Capacitor::bind_params(spice::ParamBank& bank) {
  c_.bind(bank, "c.capacitance", name());
}

void Capacitor::stamp_ac(spice::AcStampContext& ctx) const {
  ctx.stamp_capacitance(p_, n_, companion_.capacitance());
}

std::string Capacitor::netlist_line(
    const std::function<std::string(spice::NodeId)>& node_namer) const {
  std::ostringstream os;
  os << name() << " " << node_namer(p_) << " " << node_namer(n_) << " "
     << companion_.capacitance();
  return os.str();
}

spice::DeviceTopology Capacitor::topology() const {
  spice::DeviceTopology topo;
  topo.element_letter = 'C';
  const std::size_t p = topo.add_terminal("p", p_);
  const std::size_t n = topo.add_terminal("n", n_);
  topo.add_edge(spice::DeviceTopology::EdgeKind::kCapacitive, p, n)
      .magnitude = companion_.capacitance();
  return topo;
}

void Capacitor::self_check(const lint::DeviceCheckContext& ctx,
                           std::vector<lint::LintFinding>& out) const {
  (void)ctx;
  const double c = companion_.capacitance();
  if (c == 0.0) {
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   "capacitance is exactly 0 F: the device stamps nothing "
                   "and contributes no dynamics"});
  } else if (c > 1.0) {
    std::ostringstream msg;
    msg << "capacitance " << c << " F exceeds 1 F; on-chip values are "
        << "femtofarads to picofarads — a unit suffix was likely dropped";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
}

void Capacitor::stamp(spice::StampContext& ctx) const {
  spice::stamp_roles(*this, ctx);
}

void Capacitor::kernel_descriptor(const spice::KernelLayout& layout,
                                  spice::KernelDescriptor& out) const {
  spice::describe_lanes(*this, layout, "capacitor", out);
  for (int e = 0; e < 2; ++e) {
    for (int v = 0; v < 2; ++v) out.add_j(e, v);
  }
}

void Capacitor::accept_step(const spice::AcceptContext& ctx) {
  companion_.accept(ctx, ctx.v(p_) - ctx.v(n_));
}

void Capacitor::reset_state() { companion_.reset(); }

void Capacitor::notify_discontinuity() { companion_.discontinuity(); }

// -------------------------------------------------------------- Inductor

Inductor::Inductor(std::string name, spice::NodeId p, spice::NodeId n,
                   double inductance)
    : Device(std::move(name)), p_(p), n_(n), l_(inductance) {
  require(inductance > 0.0, "Inductor: inductance must be positive");
}

void Inductor::stamp_ac(spice::AcStampContext& ctx) const {
  ctx.add_G(p_, branch_, 1.0);
  ctx.add_G(n_, branch_, -1.0);
  // KVL row: v_p - v_n - L di/dt = 0.
  ctx.add_G(branch_, p_, 1.0);
  ctx.add_G(branch_, n_, -1.0);
  ctx.add_C(branch_, branch_, -l_);
}

std::string Inductor::netlist_line(
    const std::function<std::string(spice::NodeId)>& node_namer) const {
  std::ostringstream os;
  os << name() << " " << node_namer(p_) << " " << node_namer(n_) << " " << l_;
  return os.str();
}

spice::DeviceTopology Inductor::topology() const {
  spice::DeviceTopology topo;
  topo.element_letter = 'L';
  const std::size_t p = topo.add_terminal("p", p_);
  const std::size_t n = topo.add_terminal("n", n_);
  // An inductor is a DC short: a voltage-defined branch for loop checks.
  topo.add_edge(spice::DeviceTopology::EdgeKind::kVoltage, p, n).magnitude =
      l_;
  return topo;
}

void Inductor::interval_transfer(const analyze::IntervalSet& nodes,
                                 std::vector<analyze::NodeClaim>& out) const {
  // DC short: both terminals share one interval (equality relation).
  out.push_back({p_, nodes.at(n_), analyze::NodeClaim::Kind::kRelation});
  out.push_back({n_, nodes.at(p_), analyze::NodeClaim::Kind::kRelation});
}

void Inductor::self_check(const lint::DeviceCheckContext& ctx,
                          std::vector<lint::LintFinding>& out) const {
  (void)ctx;
  if (l_ < 1e-15 || l_ > 1e3) {
    std::ostringstream msg;
    msg << "inductance " << l_ << " H is outside the physically sensible "
        << "range [1 fH, 1 kH]; a unit suffix was likely dropped";
    out.push_back({lint::LintSeverity::kWarning, "nonphysical-parameter", "",
                   msg.str()});
  }
}

void Inductor::setup(spice::SetupContext& ctx) {
  branch_ = ctx.add_branch_current(name());
}

template <class Sink>
void Inductor::eval(const Sink& k) const {
  const double i = k.xr(2);
  // KCL: branch current flows p -> n.
  k.f(0, i);
  k.f(1, -i);
  k.J(0, 2, 1.0);
  k.J(1, 2, -1.0);

  // Branch (KVL) row.
  const double v = k.xr(0) - k.xr(1);
  if (k.dc()) {
    // Short circuit: v = 0.
    k.f(2, v);
    k.J(2, 0, 1.0);
    k.J(2, 1, -1.0);
    return;
  }
  const double dt = k.dt();
  if (use_be_) {
    // v = L (i - i0)/dt
    k.f(2, v - l_ * (i - i0_) / dt);
    k.J(2, 0, 1.0);
    k.J(2, 1, -1.0);
    k.J(2, 2, -l_ / dt);
  } else {
    // (v + v0)/2 = L (i - i0)/dt
    k.f(2, 0.5 * (v + vl0_) - l_ * (i - i0_) / dt);
    k.J(2, 0, 0.5);
    k.J(2, 1, -0.5);
    k.J(2, 2, -l_ / dt);
  }
}

void Inductor::stamp(spice::StampContext& ctx) const {
  spice::stamp_roles(*this, ctx);
}

void Inductor::kernel_descriptor(const spice::KernelLayout& layout,
                                 spice::KernelDescriptor& out) const {
  spice::describe_lanes(*this, layout, "inductor", out);
  out.add_j(0, 2);
  out.add_j(1, 2);
  out.add_j(2, 0);
  out.add_j(2, 1);
  out.add_j(2, 2);
}

void Inductor::accept_step(const spice::AcceptContext& ctx) {
  i0_ = ctx.x(branch_);
  if (ctx.mode() == AnalysisMode::kDcOperatingPoint) {
    vl0_ = 0.0;
    use_be_ = true;
    return;
  }
  vl0_ = ctx.v(p_) - ctx.v(n_);
  use_be_ = false;
}

void Inductor::reset_state() {
  i0_ = 0.0;
  vl0_ = 0.0;
  use_be_ = true;
}

void Inductor::notify_discontinuity() { use_be_ = true; }

}  // namespace nemsim::devices
