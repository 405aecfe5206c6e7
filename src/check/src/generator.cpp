#include "nemsim/check/generator.h"

#include <utility>
#include <vector>

#include "nemsim/devices/controlled.h"
#include "nemsim/devices/diode.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/passives.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/subcircuit.h"
#include "nemsim/tech/cards.h"
#include "nemsim/util/error.h"
#include "nemsim/util/rng.h"

namespace nemsim::check {

namespace {

using devices::Capacitor;
using devices::CurrentSource;
using devices::Diode;
using devices::Inductor;
using devices::Mosfet;
using devices::MosPolarity;
using devices::Nemfet;
using devices::NemsPolarity;
using devices::Resistor;
using devices::SourceWave;
using devices::Vccs;
using devices::Vcvs;
using devices::VoltageSource;

// Every table value is a short decimal literal: printed by the exporter
// (6 significant digits for ostream-formatted devices, fixed 6 decimals
// for std::to_string-formatted resistors) it re-parses to the identical
// double, which is what makes the export -> parse round-trip contract
// bitwise rather than merely close.
constexpr double kResistors[] = {220.0,   470.0,   1000.0,  2200.0,
                                 4700.0,  10000.0, 22000.0, 47000.0};
constexpr double kCapacitors[] = {1e-15, 2e-15, 5e-15, 1e-14,
                                  2.2e-14, 4.7e-14, 1e-13};
constexpr double kInductors[] = {1e-9, 2.2e-9, 4.7e-9, 1e-8};
// RLC tanks draw from dedicated tables keeping the resonance low-Q
// (Q = R * sqrt(C/L) with the series resistor acting as the tank's
// parallel loss; these combinations give Q <= 0.3, ringing dead within
// a cycle).  A high-Q tank rings for hundreds of cycles, and two
// legitimate adaptive step sequences drift in phase — pointwise
// trajectory comparison of a phase-drifted oscillation is
// ill-conditioned at ANY tolerance, so the reltol contracts would
// flag circuits both of whose legs are individually correct.
constexpr double kTankResistors[] = {220.0, 470.0};
constexpr double kTankInductors[] = {4.7e-9, 1e-8};
constexpr double kTankCapacitors[] = {1e-15, 2e-15};
constexpr double kGains[] = {0.5, 1.0, 2.0};
constexpr double kGms[] = {1e-5, 5e-5, 1e-4, 2e-4};
constexpr double kMosWidths[] = {1.2e-7, 2.4e-7, 4.8e-7, 1e-6};
constexpr double kMosLengths[] = {1e-7, 2e-7};
constexpr double kNemsWidths[] = {2.4e-7, 4.8e-7, 1e-6};

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&table)[N]) {
  return table[rng.index(N)];
}

enum class StageKind {
  kRcDivider,   ///< R anchor->s, R s->gnd, C s->gnd
  kRlcTank,     ///< R anchor->s, L s->gnd, C s->gnd
  kDiodeClamp,  ///< R anchor->s, D s->gnd, C s->gnd
  kInverter,    ///< CMOS pair gated by anchor, C load
  kNemfet,      ///< NEMFET pull-down (gate railed), R pull-up, C load
  kVcvsBuffer,  ///< E sensing anchor, R load
  kVccsLoad,    ///< G injecting g_m * v(anchor) into an existing node
  kBridge,      ///< R between two existing signal nodes
};

/// One fully pinned stage: every random choice is drawn while the plan
/// is built, so the flat and subcircuit-wrapped twins materialize the
/// byte-identical device sequence.
struct StagePlan {
  StageKind kind = StageKind::kRcDivider;
  std::size_t idx = 0;   ///< device-name suffix
  std::string anchor;    ///< existing local node name
  std::string anchor2;   ///< kBridge / kVccsLoad second existing node
  std::string out;       ///< fresh local node ("s<idx>") when the stage adds one
  double r1 = 0.0, r2 = 0.0, c = 0.0, l = 0.0, gain = 0.0, w = 0.0, len = 0.0;
  bool gate_high = true;  ///< kNemfet: gate tied to vdd (true) or ground
};

struct Plan {
  SourceWave stimulus = SourceWave::dc(0.0);
  std::vector<StagePlan> stages;
  bool has_nemfet = false, has_mosfet = false, has_diode = false;
  /// True when some stage attaches to the supply rail.  When none does,
  /// generate_circuit adds a bleeder resistor so 'vdd' never dangles
  /// with only the Vsup branch on it (a lint warning the generator
  /// promises not to produce).
  bool uses_vdd = false;
};

SourceWave make_stimulus(Rng& rng, double vdd) {
  switch (rng.index(4)) {
    case 0:
      return SourceWave::dc(0.5 * vdd);
    case 1:
      return SourceWave::pulse(0.0, vdd, 2e-10, 5e-11, 5e-11, 1.5e-9);
    case 2:
      return SourceWave::pulse(0.0, vdd, 1e-10, 1e-10, 1e-10, 1e-9, 3e-9);
    default:
      return SourceWave::pwl(
          {{0.0, 0.0}, {5e-10, vdd}, {2e-9, vdd}, {2.5e-9, 0.25 * vdd}});
  }
}

Plan make_plan(std::uint64_t seed, const GeneratorOptions& options) {
  require(options.max_stages >= options.min_stages && options.min_stages > 0,
          "generate_circuit: bad stage bounds");
  Rng rng = Rng(seed).child(0x6e656d73);  // decorrelate from raw seed use
  Plan plan;
  plan.stimulus = make_stimulus(rng, options.vdd);

  // Local node names that already carry a signal worth probing; "in" is
  // the stimulus, stage outputs join as they are created.
  std::vector<std::string> signals = {"in"};
  const std::size_t stages =
      options.min_stages +
      rng.index(options.max_stages - options.min_stages + 1);
  for (std::size_t k = 0; k < stages; ++k) {
    StagePlan s;
    s.idx = k + 1;
    s.anchor = signals[rng.index(signals.size())];
    // Draw a kind the option set allows (rejection loop is deterministic).
    for (;;) {
      s.kind = static_cast<StageKind>(rng.index(8));
      if (s.kind == StageKind::kRlcTank && !options.allow_inductors) continue;
      if (s.kind == StageKind::kDiodeClamp && !options.allow_diodes) continue;
      if (s.kind == StageKind::kInverter && !options.allow_mosfets) continue;
      if (s.kind == StageKind::kNemfet && !options.allow_nemfets) continue;
      if ((s.kind == StageKind::kVcvsBuffer ||
           s.kind == StageKind::kVccsLoad) &&
          !options.allow_controlled) {
        continue;
      }
      break;
    }
    s.r1 = pick(rng, kResistors);
    s.r2 = pick(rng, kResistors);
    s.c = pick(rng, kCapacitors);
    s.l = pick(rng, kInductors);
    s.gain = pick(rng, kGains);
    if (s.kind == StageKind::kRlcTank) {
      s.r1 = pick(rng, kTankResistors);
      s.l = pick(rng, kTankInductors);
      s.c = pick(rng, kTankCapacitors);
    }
    switch (s.kind) {
      case StageKind::kInverter:
        plan.has_mosfet = true;
        s.w = pick(rng, kMosWidths);
        s.len = pick(rng, kMosLengths);
        break;
      case StageKind::kNemfet:
        plan.has_nemfet = true;
        s.w = pick(rng, kNemsWidths);
        s.gate_high = rng.index(2) == 0;
        break;
      case StageKind::kDiodeClamp:
        plan.has_diode = true;
        break;
      case StageKind::kVccsLoad:
        s.gain = pick(rng, kGms);
        s.anchor2 = signals[rng.index(signals.size())];
        break;
      case StageKind::kBridge:
        s.anchor2 = signals[rng.index(signals.size())];
        break;
      default:
        break;
    }
    if (s.kind != StageKind::kVccsLoad && s.kind != StageKind::kBridge) {
      const std::string idx = std::to_string(s.idx);
      s.out = "s" + idx;
      signals.push_back(s.out);
    }
    if (s.kind == StageKind::kInverter || s.kind == StageKind::kNemfet ||
        (s.kind == StageKind::kBridge && s.anchor2 == s.anchor)) {
      plan.uses_vdd = true;
    }
    plan.stages.push_back(std::move(s));
  }
  return plan;
}

/// Materializes the plan through either a flat Circuit or a
/// SubcircuitScope; both expose node(name) and add<T>(name, ...), so the
/// two twins are built by the same code path and therefore in the same
/// node-creation and device order (which is what makes their MNA systems
/// bitwise twins).
template <typename Adapter>
void materialize(Adapter& a, const Plan& plan, double vdd) {
  (void)vdd;
  for (const StagePlan& s : plan.stages) {
    const std::string n = std::to_string(s.idx);
    const spice::NodeId anchor = a.node(s.anchor);
    switch (s.kind) {
      case StageKind::kRcDivider: {
        const spice::NodeId out = a.node(s.out);
        a.template add<Resistor>("R" + n + "A", anchor, out, s.r1);
        a.template add<Resistor>("R" + n + "B", out, a.node("0"), s.r2);
        a.template add<Capacitor>("C" + n, out, a.node("0"), s.c);
        break;
      }
      case StageKind::kRlcTank: {
        const spice::NodeId out = a.node(s.out);
        a.template add<Resistor>("R" + n + "A", anchor, out, s.r1);
        a.template add<Inductor>("L" + n, out, a.node("0"), s.l);
        a.template add<Capacitor>("C" + n, out, a.node("0"), s.c);
        break;
      }
      case StageKind::kDiodeClamp: {
        const spice::NodeId out = a.node(s.out);
        a.template add<Resistor>("R" + n + "A", anchor, out, s.r1);
        a.template add<Diode>("D" + n, out, a.node("0"));
        a.template add<Capacitor>("C" + n, out, a.node("0"), s.c);
        break;
      }
      case StageKind::kInverter: {
        const spice::NodeId out = a.node(s.out);
        a.template add<Mosfet>("MP" + n, out, anchor, a.node("vdd"),
                               MosPolarity::kPmos, tech::pmos_90nm(), 2.0 * s.w,
                               s.len);
        a.template add<Mosfet>("MN" + n, out, anchor, a.node("0"),
                               MosPolarity::kNmos, tech::nmos_90nm(), s.w,
                               s.len);
        a.template add<Capacitor>("C" + n, out, a.node("0"), s.c);
        break;
      }
      case StageKind::kNemfet: {
        // The gate sits on a rail, so the beam has a unique equilibrium
        // branch (firmly pulled in at vdd, firmly released at ground) and
        // redundant-path comparisons never straddle the bistable pull-in
        // boundary where roundoff legitimately picks different branches.
        const spice::NodeId out = a.node(s.out);
        const spice::NodeId gate = s.gate_high ? a.node("vdd") : a.node("0");
        a.template add<Resistor>("R" + n + "A", a.node("vdd"), out, s.r1);
        a.template add<Nemfet>("X" + n, out, gate, a.node("0"),
                               NemsPolarity::kN, tech::nems_90nm(), s.w);
        a.template add<Capacitor>("C" + n, out, a.node("0"), s.c);
        break;
      }
      case StageKind::kVcvsBuffer: {
        const spice::NodeId out = a.node(s.out);
        a.template add<Vcvs>("E" + n, out, a.node("0"), anchor, a.node("0"),
                             s.gain);
        a.template add<Resistor>("R" + n + "A", out, a.node("0"), s.r1);
        break;
      }
      case StageKind::kVccsLoad: {
        const spice::NodeId sink = a.node(s.anchor2);
        a.template add<Vccs>("G" + n, sink, a.node("0"), anchor, a.node("0"),
                             s.gain);
        break;
      }
      case StageKind::kBridge: {
        const spice::NodeId other = a.node(s.anchor2);
        if (other == anchor) {
          a.template add<Resistor>("R" + n + "A", anchor, a.node("vdd"), s.r1);
        } else {
          a.template add<Resistor>("R" + n + "A", anchor, other, s.r1);
        }
        break;
      }
    }
  }
}

struct FlatAdapter {
  spice::Circuit& ckt;
  spice::NodeId node(const std::string& name) { return ckt.node(name); }
  template <typename T, typename... Args>
  T& add(const std::string& name, Args&&... args) {
    return ckt.add<T>(name, std::forward<Args>(args)...);
  }
};

struct ScopeAdapter {
  spice::SubcircuitScope& scope;
  spice::NodeId node(const std::string& name) { return scope.node(name); }
  template <typename T, typename... Args>
  T& add(const std::string& name, Args&&... args) {
    return scope.add<T>(name, std::forward<Args>(args)...);
  }
};

}  // namespace

spice::Circuit generate_circuit(std::uint64_t seed,
                                const GeneratorOptions& options,
                                GeneratedInfo* info, bool wrap_in_subckt) {
  const Plan plan = make_plan(seed, options);

  spice::Circuit ckt;
  const spice::NodeId vdd = ckt.node("vdd");
  const spice::NodeId in = ckt.node("in");
  ckt.add<VoltageSource>("Vsup", vdd, ckt.gnd(), SourceWave::dc(options.vdd));
  ckt.add<VoltageSource>("Vin", in, ckt.gnd(), plan.stimulus);
  // Keep the supply rail two-terminal even when no stage drew on it; a
  // top-level device in both twins, so the flat/hierarchy pairing is
  // unaffected (resistors add no branch unknowns).
  if (!plan.uses_vdd) {
    ckt.add<Resistor>("Rvddbleed", vdd, ckt.gnd(), 22000.0);
  }

  if (wrap_in_subckt) {
    const spice::Subcircuit def(
        "fuzzdut", {"vdd", "in"}, [&plan, &options](spice::SubcircuitScope& s) {
          ScopeAdapter a{s};
          materialize(a, plan, options.vdd);
        });
    ckt.instantiate(def, "Xdut", {vdd, in});
  } else {
    FlatAdapter a{ckt};
    materialize(a, plan, options.vdd);
  }

  if (info != nullptr) {
    info->vdd = options.vdd;
    info->tstop = 4e-9;
    info->stages = plan.stages.size();
    info->has_nemfet = plan.has_nemfet;
    info->has_mosfet = plan.has_mosfet;
    info->has_diode = plan.has_diode;
  }
  return ckt;
}

}  // namespace nemsim::check
