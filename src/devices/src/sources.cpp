#include "nemsim/devices/sources.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "nemsim/spice/ac.h"
#include <complex>
#include "nemsim/util/error.h"

namespace nemsim::devices {

using spice::AnalysisMode;

// ------------------------------------------------------------ SourceWave

SourceWave SourceWave::dc(double value) {
  SourceWave w;
  w.kind_ = Kind::kDc;
  w.v1_ = value;
  return w;
}

SourceWave SourceWave::pulse(double v1, double v2, double delay, double rise,
                             double fall, double width, double period) {
  require(rise > 0.0 && fall > 0.0, "pulse: rise/fall must be positive");
  require(width >= 0.0 && delay >= 0.0, "pulse: width/delay must be >= 0");
  if (period > 0.0) {
    require(period >= rise + fall + width,
            "pulse: period shorter than one pulse");
  }
  SourceWave w;
  w.kind_ = Kind::kPulse;
  w.v1_ = v1;
  w.v2_ = v2;
  w.delay_ = delay;
  w.rise_ = rise;
  w.fall_ = fall;
  w.width_ = width;
  w.period_ = period;
  return w;
}

SourceWave SourceWave::pwl(std::vector<std::pair<double, double>> points) {
  require(!points.empty(), "pwl: need at least one point");
  for (std::size_t i = 1; i < points.size(); ++i) {
    require(points[i].first > points[i - 1].first,
            "pwl: times must be strictly increasing");
  }
  SourceWave w;
  w.kind_ = Kind::kPwl;
  w.points_ = std::move(points);
  return w;
}

SourceWave SourceWave::sine(double offset, double amplitude, double freq,
                            double delay) {
  require(freq > 0.0, "sine: frequency must be positive");
  SourceWave w;
  w.kind_ = Kind::kSine;
  w.v1_ = offset;
  w.v2_ = amplitude;
  w.freq_ = freq;
  w.delay_ = delay;
  return w;
}

double SourceWave::value(double t) const {
  switch (kind_) {
    case Kind::kDc:
      return v1_;
    case Kind::kPulse: {
      if (t < delay_) return v1_;
      double local = t - delay_;
      if (period_ > 0.0) local = std::fmod(local, period_);
      if (local < rise_) return v1_ + (v2_ - v1_) * (local / rise_);
      if (local < rise_ + width_) return v2_;
      if (local < rise_ + width_ + fall_) {
        return v2_ + (v1_ - v2_) * ((local - rise_ - width_) / fall_);
      }
      return v1_;
    }
    case Kind::kPwl: {
      if (t <= points_.front().first) return points_.front().second;
      if (t >= points_.back().first) return points_.back().second;
      for (std::size_t i = 1; i < points_.size(); ++i) {
        if (t <= points_[i].first) {
          const auto& [t0, y0] = points_[i - 1];
          const auto& [t1, y1] = points_[i];
          return y0 + (y1 - y0) * (t - t0) / (t1 - t0);
        }
      }
      return points_.back().second;
    }
    case Kind::kSine: {
      if (t < delay_) return v1_;
      return v1_ + v2_ * std::sin(2.0 * std::numbers::pi * freq_ * (t - delay_));
    }
  }
  return 0.0;
}

void SourceWave::breakpoints(double tstop, std::vector<double>& out) const {
  switch (kind_) {
    case Kind::kDc:
    case Kind::kSine:
      return;
    case Kind::kPulse: {
      const double one = rise_ + width_ + fall_;
      double base = delay_;
      while (base <= tstop) {
        out.push_back(base);
        out.push_back(base + rise_);
        out.push_back(base + rise_ + width_);
        out.push_back(base + one);
        if (period_ <= 0.0) break;
        base += period_;
      }
      return;
    }
    case Kind::kPwl: {
      for (const auto& [t, v] : points_) {
        (void)v;
        if (t > 0.0 && t <= tstop) out.push_back(t);
      }
      return;
    }
  }
}

std::string SourceWave::to_spice() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kDc:
      os << "DC " << v1_;
      break;
    case Kind::kPulse:
      os << "PULSE(" << v1_ << " " << v2_ << " " << delay_ << " " << rise_
         << " " << fall_ << " " << width_;
      if (period_ > 0.0) os << " " << period_;
      os << ")";
      break;
    case Kind::kPwl:
      os << "PWL(";
      for (std::size_t i = 0; i < points_.size(); ++i) {
        if (i) os << " ";
        os << points_[i].first << " " << points_[i].second;
      }
      os << ")";
      break;
    case Kind::kSine:
      os << "SIN(" << v1_ << " " << v2_ << " " << freq_ << " " << delay_
         << ")";
      break;
  }
  return os.str();
}

double SourceWave::max_abs_value() const {
  switch (kind_) {
    case Kind::kDc:
      return std::abs(v1_);
    case Kind::kPulse:
      return std::max(std::abs(v1_), std::abs(v2_));
    case Kind::kSine:
      return std::abs(v1_) + std::abs(v2_);
    case Kind::kPwl: {
      double m = 0.0;
      for (const auto& [t, v] : points_) {
        (void)t;
        m = std::max(m, std::abs(v));
      }
      return m;
    }
  }
  return 0.0;
}

std::pair<double, double> SourceWave::value_range() const {
  switch (kind_) {
    case Kind::kDc:
      return {v1_, v1_};
    case Kind::kPulse:
      return std::minmax(v1_, v2_);
    case Kind::kSine:
      // value(t) = v1_ for t < delay, which sits inside offset +- |amp|.
      return {v1_ - std::abs(v2_), v1_ + std::abs(v2_)};
    case Kind::kPwl: {
      double lo = points_.front().second, hi = lo;
      for (const auto& [t, v] : points_) {
        (void)t;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      return {lo, hi};
    }
  }
  return {0.0, 0.0};
}

// --------------------------------------------------------- VoltageSource

VoltageSource::VoltageSource(std::string name, spice::NodeId p,
                             spice::NodeId n, SourceWave wave)
    : Device(std::move(name)), p_(p), n_(n), wave_(std::move(wave)) {
  if (wave_.is_dc()) dc_level_.set(wave_.dc_value());
}

void VoltageSource::bind_params(spice::ParamBank& bank) {
  dc_level_.bind(bank, "v.dc", name());
}

void VoltageSource::setup(spice::SetupContext& ctx) {
  branch_ = ctx.add_branch_current(name());
}

template <class Sink>
void VoltageSource::eval(const Sink& k) const {
  const double i = k.xr(2);
  k.f(0, i);
  k.f(1, -i);
  k.J(0, 2, 1.0);
  k.J(1, 2, -1.0);

  const double target = wave_.value(k.time()) * k.source_factor();
  k.f(2, k.xr(0) - k.xr(1) - target);
  k.J(2, 0, 1.0);
  k.J(2, 1, -1.0);
}

void VoltageSource::stamp(spice::StampContext& ctx) const {
  spice::stamp_roles(*this, ctx);
}

void VoltageSource::kernel_descriptor(const spice::KernelLayout& layout,
                                      spice::KernelDescriptor& out) const {
  spice::describe_lanes(*this, layout, "vsource", out);
  out.add_j(0, 2);
  out.add_j(1, 2);
  out.add_j(2, 0);
  out.add_j(2, 1);
}

void VoltageSource::breakpoints(double tstop, std::vector<double>& out) const {
  wave_.breakpoints(tstop, out);
}

void VoltageSource::stamp_ac(spice::AcStampContext& ctx) const {
  ctx.add_G(p_, branch_, 1.0);
  ctx.add_G(n_, branch_, -1.0);
  ctx.add_G(branch_, p_, 1.0);
  ctx.add_G(branch_, n_, -1.0);
  const double phase = ac_phase_deg_ * std::numbers::pi / 180.0;
  ctx.add_rhs(branch_, std::polar(ac_magnitude_, phase));
}

spice::DeviceTopology VoltageSource::topology() const {
  spice::DeviceTopology topo;
  topo.element_letter = 'V';
  const std::size_t p = topo.add_terminal("p", p_);
  const std::size_t n = topo.add_terminal("n", n_);
  auto& edge = topo.add_edge(spice::DeviceTopology::EdgeKind::kVoltage, p, n);
  edge.is_source = true;
  edge.dc_value = wave_.value(0.0);
  edge.max_abs = wave_.max_abs_value();
  return topo;
}

void VoltageSource::interval_transfer(
    const analyze::IntervalSet& nodes,
    std::vector<analyze::NodeClaim>& out) const {
  // v(p) - v(n) tracks the waveform exactly, so each terminal lies in
  // the other's interval shifted by the waveform's value range.
  const auto [lo, hi] = wave_.value_range();
  const analyze::Interval range{lo, hi};
  out.push_back(
      {p_, nodes.at(n_) + range, analyze::NodeClaim::Kind::kRelation});
  out.push_back(
      {n_, nodes.at(p_) - range, analyze::NodeClaim::Kind::kRelation});
}

std::string VoltageSource::netlist_line(
    const std::function<std::string(spice::NodeId)>& node_namer) const {
  return name() + " " + node_namer(p_) + " " + node_namer(n_) + " " +
         wave_.to_spice();
}

// --------------------------------------------------------- CurrentSource

CurrentSource::CurrentSource(std::string name, spice::NodeId p,
                             spice::NodeId n, SourceWave wave)
    : Device(std::move(name)), p_(p), n_(n), wave_(std::move(wave)) {
  if (wave_.is_dc()) dc_level_.set(wave_.dc_value());
}

void CurrentSource::bind_params(spice::ParamBank& bank) {
  dc_level_.bind(bank, "i.dc", name());
}

template <class Sink>
void CurrentSource::eval(const Sink& k) const {
  const double i = wave_.value(k.time()) * k.source_factor();
  // Convention: the source drives current out of p (through the external
  // circuit) into n; at node p the device removes +i.
  k.f(0, i);
  k.f(1, -i);
}

void CurrentSource::stamp(spice::StampContext& ctx) const {
  spice::stamp_roles(*this, ctx);
}

void CurrentSource::kernel_descriptor(const spice::KernelLayout& layout,
                                      spice::KernelDescriptor& out) const {
  spice::describe_lanes(*this, layout, "isource", out);
  // No Jacobian cells: the excitation is iterate-independent.
}

void CurrentSource::breakpoints(double tstop, std::vector<double>& out) const {
  wave_.breakpoints(tstop, out);
}

void CurrentSource::stamp_ac(spice::AcStampContext& ctx) const {
  // DC convention: +i leaves node p.  Moving the excitation to the right
  // hand side flips the sign.
  const double phase = ac_phase_deg_ * std::numbers::pi / 180.0;
  const linalg::Complex i = std::polar(ac_magnitude_, phase);
  ctx.add_rhs(p_, -i);
  ctx.add_rhs(n_, i);
}

spice::DeviceTopology CurrentSource::topology() const {
  spice::DeviceTopology topo;
  topo.element_letter = 'I';
  const std::size_t p = topo.add_terminal("p", p_);
  const std::size_t n = topo.add_terminal("n", n_);
  auto& edge = topo.add_edge(spice::DeviceTopology::EdgeKind::kCurrent, p, n);
  edge.is_source = true;
  edge.dc_value = wave_.value(0.0);
  edge.max_abs = wave_.max_abs_value();
  return topo;
}

std::string CurrentSource::netlist_line(
    const std::function<std::string(spice::NodeId)>& node_namer) const {
  return name() + " " + node_namer(p_) + " " + node_namer(n_) + " " +
         wave_.to_spice();
}

}  // namespace nemsim::devices
