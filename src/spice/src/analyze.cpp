#include "nemsim/spice/analyze.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "nemsim/spice/circuit.h"
#include "nemsim/spice/device.h"
#include "nemsim/spice/diagnostics.h"
#include "findings_internal.h"

namespace nemsim::spice {

// Default interval transfer: one maximum-principle neighbor claim per
// direction of every conductive topology edge.  Sound for any device
// whose conductive edges are passive — every in-tree device.  In-tree
// devices override this with an allocation-free equivalent (topology()
// builds vectors, and the fixpoint loop calls the hook every sweep).
void Device::interval_transfer(const analyze::IntervalSet& nodes,
                               std::vector<analyze::NodeClaim>& out) const {
  const DeviceTopology topo = topology();
  for (const DeviceTopology::Edge& e : topo.edges) {
    if (e.kind != DeviceTopology::EdgeKind::kConductive) continue;
    const NodeId a = topo.terminals[e.a].node;
    const NodeId b = topo.terminals[e.b].node;
    out.push_back({a, nodes.at(b), analyze::NodeClaim::Kind::kNeighbor});
    out.push_back({b, nodes.at(a), analyze::NodeClaim::Kind::kNeighbor});
  }
}

}  // namespace nemsim::spice

namespace nemsim::analyze {

using spice::Circuit;
using spice::DeviceTopology;
using spice::NodeId;

std::string Interval::to_string() const {
  std::ostringstream os;
  os << "[";
  if (std::isfinite(lo)) {
    os << lo;
  } else {
    os << "-inf";
  }
  os << ", ";
  if (std::isfinite(hi)) {
    os << hi;
  } else {
    os << "+inf";
  }
  os << "]";
  return os.str();
}

namespace {

using lint::LintReport;
using lint::LintSeverity;
using lint::ReportBuilder;

struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

std::string engineering(double v) {
  std::ostringstream os;
  os.precision(3);
  os << v;
  return os.str();
}

/// The DC interval fixpoint.  Jacobi-style: every sweep gathers all
/// device claims against the intervals as they stood at sweep start,
/// then applies them — relation claims by direct intersection, neighbor
/// claims by intersecting the union (hull) of every neighbor claim at a
/// node, and only at nodes the maximum principle covers (no incident
/// voltage- or current-defined edge; those inject current past the
/// passive edges, so such a node can legitimately sit outside its
/// neighbors' hull).  The lattice starts at top and only narrows, so
/// the sweep cap bounds work without costing soundness.
void run_interval_fixpoint(const Circuit& circuit,
                           const std::vector<DeviceTopology>& topos,
                           AnalyzeReport& rpt) {
  const std::size_t nn = circuit.num_nodes();

  std::vector<char> relaxable(nn, 1);
  relaxable[0] = 0;  // ground is pinned to [0, 0]
  for (const DeviceTopology& topo : topos) {
    for (const DeviceTopology::Edge& e : topo.edges) {
      if (e.kind == DeviceTopology::EdgeKind::kVoltage ||
          e.kind == DeviceTopology::EdgeKind::kCurrent) {
        relaxable[topo.terminals[e.a].node.index] = 0;
        relaxable[topo.terminals[e.b].node.index] = 0;
      }
    }
  }

  // Sweep cap: enough for one relation/neighbor hop per sweep along the
  // longest possible chain.
  const std::size_t cap = nn + 8;
  std::vector<NodeClaim> claims;
  std::vector<Interval> hull(nn);
  std::vector<char> has_neighbor(nn, 0);
  for (std::size_t sweep = 0; sweep < cap; ++sweep) {
    claims.clear();
    for (std::size_t d = 0; d < circuit.num_devices(); ++d) {
      circuit.device(d).interval_transfer(rpt.intervals, claims);
    }

    std::fill(has_neighbor.begin(), has_neighbor.end(), 0);
    for (const NodeClaim& c : claims) {
      if (c.kind != NodeClaim::Kind::kNeighbor) continue;
      const std::size_t i = c.node.index;
      hull[i] = has_neighbor[i] ? hull[i].hull(c.bound) : c.bound;
      has_neighbor[i] = 1;
    }

    bool changed = false;
    for (std::size_t i = 1; i < nn; ++i) {
      if (relaxable[i] && has_neighbor[i]) {
        changed |= rpt.intervals.tighten(NodeId{i}, hull[i]);
      }
    }
    for (const NodeClaim& c : claims) {
      if (c.kind == NodeClaim::Kind::kRelation && !c.node.is_ground()) {
        changed |= rpt.intervals.tighten(c.node, c.bound);
      }
    }

    ++rpt.sweeps;
    if (!changed) {
      rpt.fixpoint = true;
      break;
    }
  }
}

/// Stiffness and conditioning scan over the edge magnitudes.
void run_magnitude_scan(const Circuit& circuit,
                        const std::vector<DeviceTopology>& topos,
                        AnalyzeReport& rpt, ReportBuilder& out) {
  // Node time-constant spread (tau_max / tau_min) above which the
  // circuit is called stiff.
  constexpr double kStiffnessRatio = 1e6;
  // Conductive-magnitude spread (g_max / g_min) above which Jacobian
  // conditioning is flagged.
  constexpr double kConditioningRatio = 1e9;
  const std::size_t nn = circuit.num_nodes();
  std::vector<double> sum_g(nn, 0.0), sum_c(nn, 0.0);
  double g_min = std::numeric_limits<double>::infinity(), g_max = 0.0;
  std::string g_min_dev, g_max_dev;

  for (std::size_t d = 0; d < circuit.num_devices(); ++d) {
    const DeviceTopology& topo = topos[d];
    for (const DeviceTopology::Edge& e : topo.edges) {
      if (e.magnitude <= 0.0) continue;
      const std::size_t a = topo.terminals[e.a].node.index;
      const std::size_t b = topo.terminals[e.b].node.index;
      if (e.kind == DeviceTopology::EdgeKind::kConductive) {
        sum_g[a] += e.magnitude;
        sum_g[b] += e.magnitude;
        if (e.magnitude < g_min) {
          g_min = e.magnitude;
          g_min_dev = circuit.device(d).name();
        }
        if (e.magnitude > g_max) {
          g_max = e.magnitude;
          g_max_dev = circuit.device(d).name();
        }
      } else if (e.kind == DeviceTopology::EdgeKind::kCapacitive) {
        sum_c[a] += e.magnitude;
        sum_c[b] += e.magnitude;
      } else if (e.kind == DeviceTopology::EdgeKind::kCurrent &&
                 !e.is_source) {
        // A VCCS's gm lands in the same Jacobian as the conductances and
        // stretches the pivot scale just like one.
        if (e.magnitude < g_min) {
          g_min = e.magnitude;
          g_min_dev = circuit.device(d).name();
        }
        if (e.magnitude > g_max) {
          g_max = e.magnitude;
          g_max_dev = circuit.device(d).name();
        }
      }
    }
  }

  // Per-node RC time constants, plus L/R for inductor branches (an
  // inductor's kVoltage edge carries its inductance as magnitude).
  double tau_min = std::numeric_limits<double>::infinity(), tau_max = 0.0;
  std::string tau_min_at, tau_max_at;
  auto consider = [&](double tau, const std::string& where) {
    if (!(tau > 0.0) || !std::isfinite(tau)) return;
    if (tau < tau_min) {
      tau_min = tau;
      tau_min_at = where;
    }
    if (tau > tau_max) {
      tau_max = tau;
      tau_max_at = where;
    }
  };
  for (std::size_t i = 1; i < nn; ++i) {
    if (sum_c[i] > 0.0 && sum_g[i] > 0.0) {
      consider(sum_c[i] / sum_g[i], "v(" + rpt.node_names[i] + ")");
    }
  }
  for (std::size_t d = 0; d < circuit.num_devices(); ++d) {
    const DeviceTopology& topo = topos[d];
    for (const DeviceTopology::Edge& e : topo.edges) {
      if (e.kind != DeviceTopology::EdgeKind::kVoltage || e.is_source ||
          e.magnitude <= 0.0) {
        continue;
      }
      const double g = std::max(sum_g[topo.terminals[e.a].node.index],
                                sum_g[topo.terminals[e.b].node.index]);
      if (g > 0.0) consider(e.magnitude * g, circuit.device(d).name());
    }
  }

  if (tau_max > 0.0 && std::isfinite(tau_min)) {
    rpt.tau_min = tau_min;
    rpt.tau_max = tau_max;
    if (tau_max / tau_min > kStiffnessRatio) {
      std::ostringstream msg;
      msg << "time constants span " << engineering(tau_min) << " s ("
          << tau_min_at << ") to " << engineering(tau_max) << " s ("
          << tau_max_at << "), ratio " << engineering(tau_max / tau_min)
          << ": the system is stiff — the LTE controller will hold dt near "
          << "the fast pole while the waveform evolves on the slow one. "
          << "Start with dt_initial ~ " << engineering(tau_min)
          << " s, and consider whether the fast pole is parasitic and "
          << "can be coarsened";
      out.add({LintSeverity::kWarning, "stiff-time-constants", tau_max_at,
               msg.str()});
    }
  }

  if (g_max > 0.0 && std::isfinite(g_min)) {
    rpt.g_min = g_min;
    rpt.g_max = g_max;
    if (g_max / g_min > kConditioningRatio) {
      std::ostringstream msg;
      msg << "conductances span " << engineering(g_min) << " S (" << g_min_dev
          << ") to " << engineering(g_max) << " S (" << g_max_dev
          << "), ratio " << engineering(g_max / g_min)
          << ": Jacobian rows mix these scales and LU pivots lose ~"
          << engineering(std::log10(g_max / g_min))
          << " digits; rescale element values toward a common decade or "
          << "raise the gmin floor so the small conductances stop "
          << "controlling pivot growth";
      out.add({LintSeverity::kWarning, "conductance-scale-spread", g_max_dev,
               msg.str()});
    }
  }
}

/// Controllability cones via terminal co-incidence.  Influence
/// propagates through every edge kind and through a device's body (a
/// VCVS couples its control pair to its output pair), so the
/// conservative move — union all non-ground terminals of each device —
/// can only merge components, never invent a false "dead" verdict.
/// Ground itself conducts no influence: it is a fixed rail, so two
/// subnetworks meeting only at ground stay separate components.
void run_reachability(const Circuit& circuit,
                      const std::vector<DeviceTopology>& topos,
                      ReportBuilder& out) {
  const std::size_t nn = circuit.num_nodes();
  UnionFind uf(nn);
  std::vector<char> sourced(nn, 0);

  for (const DeviceTopology& topo : topos) {
    std::size_t first = nn;  // first non-ground terminal seen
    bool has_source_edge = false;
    for (const DeviceTopology::Edge& e : topo.edges) {
      has_source_edge |= e.is_source;
    }
    for (const DeviceTopology::Terminal& t : topo.terminals) {
      if (t.node.is_ground()) continue;
      if (first == nn) {
        first = t.node.index;
      } else {
        uf.unite(first, t.node.index);
      }
      if (has_source_edge) sourced[t.node.index] = 1;
    }
  }

  std::vector<char> component_sourced(nn, 0);
  for (std::size_t i = 1; i < nn; ++i) {
    if (sourced[i]) component_sourced[uf.find(i)] = 1;
  }

  for (std::size_t d = 0; d < circuit.num_devices(); ++d) {
    const DeviceTopology& topo = topos[d];
    bool touches_circuit = false, reachable = false;
    for (const DeviceTopology::Terminal& t : topo.terminals) {
      if (t.node.is_ground()) continue;
      touches_circuit = true;
      reachable |= component_sourced[uf.find(t.node.index)] != 0;
    }
    if (!touches_circuit) continue;  // all terminals grounded: inert anyway
    if (!reachable) {
      out.add({LintSeverity::kWarning, "dead-subcircuit",
               circuit.device(d).name(),
               "no independent source can influence this device (its "
               "connected component has no excitation): every solution "
               "is the zero solution, and it burns stamps and unknowns "
               "for nothing"});
    }
  }
}

}  // namespace

AnalyzeReport analyze_circuit(const Circuit& circuit) {
  AnalyzeReport rpt;
  const std::size_t nn = circuit.num_nodes();
  rpt.intervals = IntervalSet(nn);
  rpt.node_names.reserve(nn);
  for (std::size_t i = 0; i < nn; ++i) {
    rpt.node_names.push_back(circuit.node_name(NodeId{i}));
  }

  std::vector<DeviceTopology> topos;
  topos.reserve(circuit.num_devices());
  for (std::size_t d = 0; d < circuit.num_devices(); ++d) {
    topos.push_back(circuit.device(d).topology());
  }

  run_interval_fixpoint(circuit, topos, rpt);

  for (std::size_t d = 0; d < circuit.num_devices(); ++d) {
    circuit.device(d).interval_check(rpt.intervals, rpt.verdicts);
  }

  ReportBuilder builder;
  for (const RegionVerdict& v : rpt.verdicts) {
    builder.add({v.severity, v.region, v.device, v.message});
  }
  run_magnitude_scan(circuit, topos, rpt, builder);
  run_reachability(circuit, topos, builder);
  rpt.findings = builder.take();
  return rpt;
}

LintReport analyze_gate(const Circuit& circuit, lint::LintMode mode,
                        spice::RunReport* run_report) {
  if (mode == lint::LintMode::kOff) return {};
  return lint::gate_findings(
      analyze_circuit(circuit).findings, "analyze", mode,
      /*strict_rejects_warnings=*/true,
      run_report ? &run_report->analyze_findings : nullptr);
}

}  // namespace nemsim::analyze
