#include "nemsim/core/power_gating.h"

#include <cmath>

#include "nemsim/core/cells.h"
#include "nemsim/core/gates.h"
#include "nemsim/core/metrics.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/measure.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/error.h"

namespace nemsim::core {

using devices::SourceWave;
using devices::VoltageSource;
using spice::Circuit;
using spice::MnaSystem;

namespace {

/// Figure 17's reference area: a W/L = 5 device at the 90 nm node.
double reference_area() {
  const tech::TechNode node = tech::node_90nm();
  return 5.0 * node.lmin * node.lmin;
}

/// Width for a given normalized area (L fixed at Lmin for both device
/// types; the NEMS beam footprint is taken equal to its channel area).
double width_for_area(double area_norm) {
  const tech::TechNode node = tech::node_90nm();
  return area_norm * reference_area() / node.lmin;
}

/// Instantiates the library sleep-switch cell as `inst` between `d`, `g`
/// and `s` (nemsim/core/cells.h: footer = N-type to ground, header =
/// P-type to Vdd; NEMS or CMOS flavour per the experiment config).
void add_sleep_switch(Circuit& ckt, const std::string& inst,
                      SleepDeviceType device, bool footer, spice::NodeId d,
                      spice::NodeId g, spice::NodeId s, double width) {
  ckt.instantiate(
      sleep_switch_cell(footer, device != SleepDeviceType::kCmos), inst,
      {d, g, s}, {{"W", width}, {"L", tech::node_90nm().lmin}});
}

/// Builds a single footer/header switch with Vg/Vd sources, solves the
/// OP, and returns the drain current magnitude.
double switch_current(const SleepSweepConfig& config, double width,
                      bool on_state, double vds) {
  Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  const bool footer = config.style == SleepStyle::kFooter;
  // Footer: N device, source grounded.  Header: P device with the source
  // at Vdd, biases mirrored.
  const double sgn = footer ? 1.0 : -1.0;
  spice::NodeId src_node = ckt.gnd();
  if (!footer) {
    src_node = ckt.node("s");
    ckt.add<VoltageSource>("Vs", src_node, ckt.gnd(),
                           SourceWave::dc(config.vdd));
  }
  const double v_src = footer ? 0.0 : config.vdd;
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(),
                         SourceWave::dc(v_src + sgn * vds));
  ckt.add<VoltageSource>(
      "Vg", g, ckt.gnd(),
      SourceWave::dc(on_state ? v_src + sgn * config.vdd : v_src));

  add_sleep_switch(ckt, "Xsw", config.device, footer, d, g, src_node, width);

  MnaSystem system(ckt);
  spice::OpResult op = spice::operating_point(system);
  return std::abs(op.value("i(Vd)"));
}

}  // namespace

std::vector<SleepPoint> sweep_sleep_transistor(
    const SleepSweepConfig& config, const std::vector<double>& areas) {
  require(!areas.empty(), "sweep_sleep_transistor: no areas");
  std::vector<SleepPoint> out;
  out.reserve(areas.size());
  for (double area : areas) {
    require(area > 0.0, "sweep_sleep_transistor: area must be positive");
    const double w = width_for_area(area);
    SleepPoint p;
    p.area_norm = area;
    const double i_on =
        switch_current(config, w, /*on_state=*/true, config.vds_on);
    p.ron = config.vds_on / i_on;
    p.ioff = switch_current(config, w, /*on_state=*/false, config.vdd);
    out.push_back(p);
  }
  return out;
}

GatedBlockResult measure_gated_block(const GatedBlockConfig& config) {
  GatedBlockResult result;
  const double vdd = config.vdd;

  // --- Active delay, gated vs ungated ---
  auto chain_delay = [&](bool gated) {
    Circuit ckt;
    spice::NodeId vdd_n = ckt.node("vdd");
    spice::NodeId in = ckt.node("in");
    // Only the gated chain has a sleep switch and its gate drive.
    spice::NodeId sleep_g = gated ? ckt.node("sleepg") : ckt.gnd();
    spice::NodeId vgnd = gated ? ckt.node("vgnd") : ckt.gnd();
    ckt.add<VoltageSource>("Vdd", vdd_n, ckt.gnd(), SourceWave::dc(vdd));
    ckt.add<VoltageSource>(
        "Vin", in, ckt.gnd(),
        SourceWave::pulse(0.0, vdd, 0.5e-9, 20e-12, 20e-12, 2e-9));
    if (gated) {
      ckt.add<VoltageSource>("Vsleepg", sleep_g, ckt.gnd(),
                             SourceWave::dc(vdd));
    }
    std::vector<spice::NodeId> outs =
        add_inverter_chain(ckt, "CH", in, vdd_n, vgnd, config.stages);
    if (gated) {
      add_sleep_switch(ckt, "Xsleep", config.device, /*footer=*/true, vgnd,
                       sleep_g, ckt.gnd(), config.sleep_width);
    }
    MnaSystem system(ckt);
    spice::TransientOptions options;
    options.newton = config.newton;
    options.tstop = 3e-9;
    options.dt_initial = 1e-13;
    spice::Waveform wave = spice::transient(system, options);
    const std::string last = "v(" + ckt.node_name(outs.back()) + ")";
    const double half = 0.5 * vdd;
    const spice::Edge out_edge = (config.stages % 2 == 0)
                                     ? spice::Edge::kRising
                                     : spice::Edge::kFalling;
    const double delay = spice::propagation_delay(
        wave, "v(in)", half, spice::Edge::kRising, last, half, out_edge);
    double droop = 0.0;
    if (gated) {
      droop = spice::max_value(wave, "v(vgnd)", 0.5e-9, wave.end_time());
    }
    return std::make_pair(delay, droop);
  };

  auto [dg, droop] = chain_delay(true);
  auto [du, droop_u] = chain_delay(false);
  (void)droop_u;
  result.delay_gated = dg;
  result.delay_ungated = du;
  result.vgnd_droop = droop;

  // --- Sleep leakage: switch off, input low, chain idle ---
  {
    Circuit ckt;
    spice::NodeId vdd_n = ckt.node("vdd");
    spice::NodeId in = ckt.node("in");
    spice::NodeId sleep_g = ckt.node("sleepg");
    spice::NodeId vgnd = ckt.node("vgnd");
    ckt.add<VoltageSource>("Vdd", vdd_n, ckt.gnd(), SourceWave::dc(vdd));
    ckt.add<VoltageSource>("Vin", in, ckt.gnd(), SourceWave::dc(0.0));
    ckt.add<VoltageSource>("Vsleepg", sleep_g, ckt.gnd(),
                           SourceWave::dc(0.0));
    add_inverter_chain(ckt, "CH", in, vdd_n, vgnd, config.stages);
    add_sleep_switch(ckt, "Xsleep", config.device, /*footer=*/true, vgnd,
                     sleep_g, ckt.gnd(), config.sleep_width);
    MnaSystem system(ckt);
    spice::OpResult op = spice::operating_point(system);
    result.sleep_leakage = static_power(ckt, op);
  }

  // --- Wake-up: sleep gate rises, virtual ground collapses to ~0 ---
  {
    Circuit ckt;
    spice::NodeId vdd_n = ckt.node("vdd");
    spice::NodeId in = ckt.node("in");
    spice::NodeId sleep_g = ckt.node("sleepg");
    spice::NodeId vgnd = ckt.node("vgnd");
    ckt.add<VoltageSource>("Vdd", vdd_n, ckt.gnd(), SourceWave::dc(vdd));
    ckt.add<VoltageSource>("Vin", in, ckt.gnd(), SourceWave::dc(0.0));
    ckt.add<VoltageSource>(
        "Vsleepg", sleep_g, ckt.gnd(),
        SourceWave::pulse(0.0, vdd, 0.5e-9, 20e-12, 20e-12, 10e-9));
    add_inverter_chain(ckt, "CH", in, vdd_n, vgnd, config.stages);
    add_sleep_switch(ckt, "Xsleep", config.device, /*footer=*/true, vgnd,
                     sleep_g, ckt.gnd(), config.sleep_width);
    MnaSystem system(ckt);
    spice::TransientOptions options;
    options.newton = config.newton;
    options.tstop = 3e-9;
    options.dt_initial = 1e-13;
    spice::Waveform wave = spice::transient(system, options);
    const double t_gate =
        spice::cross_time(wave, "v(sleepg)", 0.5 * vdd, spice::Edge::kRising);
    // Settled when virtual ground falls below 5 % of Vdd.
    const double t_settle = spice::cross_time(
        wave, "v(vgnd)", 0.05 * vdd, spice::Edge::kFalling, 1, t_gate);
    result.wakeup_time = t_settle - t_gate;
  }
  return result;
}

GranularityResult measure_granularity(SleepGranularity granularity,
                                      const GranularityConfig& config) {
  require(config.stages >= 1, "measure_granularity: need stages >= 1");
  const double vdd = config.vdd;
  const bool fine = granularity == SleepGranularity::kFineGrain;
  const double per_switch_width =
      fine ? config.total_sleep_width / config.stages
           : config.total_sleep_width;

  auto build = [&](bool sleep_on) {
    auto ckt = std::make_unique<Circuit>();
    spice::NodeId vdd_n = ckt->node("vdd");
    spice::NodeId in = ckt->node("in");
    spice::NodeId sleep_g = ckt->node("sleepg");
    ckt->add<VoltageSource>("Vdd", vdd_n, ckt->gnd(), SourceWave::dc(vdd));
    ckt->add<VoltageSource>(
        "Vin", in, ckt->gnd(),
        SourceWave::pulse(0.0, vdd, 0.5e-9, 20e-12, 20e-12, 2e-9));
    ckt->add<VoltageSource>("Vsleepg", sleep_g, ckt->gnd(),
                            SourceWave::dc(sleep_on ? vdd : 0.0));
    auto add_switch = [&](const std::string& inst, spice::NodeId vgnd) {
      add_sleep_switch(*ckt, inst, config.device, /*footer=*/true, vgnd,
                       sleep_g, ckt->gnd(), per_switch_width);
    };
    spice::NodeId shared_vgnd = ckt->node("vgnd0");
    if (!fine) add_switch("Xsleep", shared_vgnd);
    spice::NodeId prev = in;
    InverterSizes sizes;
    for (int s = 0; s < config.stages; ++s) {
      // Names are built from a named index string: GCC 12 -O3 warns
      // (-Wrestrict, a false positive) on "literal" + std::to_string(s).
      const std::string idx = std::to_string(s);
      spice::NodeId vgnd = fine ? ckt->node("vgnd" + idx) : shared_vgnd;
      if (fine) add_switch("Xsleep" + idx, vgnd);
      spice::NodeId out = ckt->node("o" + idx);
      add_inverter(*ckt, "S" + idx, prev, out, vdd_n, vgnd, sizes);
      prev = out;
    }
    return ckt;
  };

  GranularityResult result;
  {
    auto ckt = build(/*sleep_on=*/true);
    MnaSystem system(*ckt);
    spice::TransientOptions options;
    options.newton = config.newton;
    options.tstop = 3e-9;
    options.dt_initial = 1e-13;
    spice::Waveform wave = spice::transient(system, options);
    const std::string last_idx = std::to_string(config.stages - 1);
    const std::string last =
        "v(" + ckt->node_name(ckt->find_node("o" + last_idx)) + ")";
    const spice::Edge out_edge = (config.stages % 2 == 0)
                                     ? spice::Edge::kRising
                                     : spice::Edge::kFalling;
    result.delay = spice::propagation_delay(wave, "v(in)", 0.5 * vdd,
                                            spice::Edge::kRising, last,
                                            0.5 * vdd, out_edge);
    const int vgnd_count = fine ? config.stages : 1;
    for (int g = 0; g < vgnd_count; ++g) {
      const std::string sig = "v(vgnd" + std::to_string(g) + ")";
      result.worst_droop = std::max(
          result.worst_droop,
          spice::max_value(wave, sig, 0.4e-9, wave.end_time()));
    }
  }
  {
    auto ckt = build(/*sleep_on=*/false);
    ckt->find<VoltageSource>("Vin").set_dc(0.0);
    MnaSystem system(*ckt);
    spice::OpResult op = spice::operating_point(system);
    result.sleep_leakage = static_power(*ckt, op);
  }
  return result;
}

}  // namespace nemsim::core
