// nemsim::lint rule engine (see nemsim/spice/lint.h for the rule list).
#include "nemsim/spice/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <map>
#include <numeric>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "nemsim/spice/circuit.h"
#include "nemsim/spice/diagnostics.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/subcircuit.h"
#include "nemsim/util/instrument.h"
#include "nemsim/util/logging.h"
#include "findings_internal.h"

namespace nemsim::lint {

namespace {

using spice::Circuit;
using spice::DeviceTopology;
using spice::MnaSystem;
using spice::NodeId;
using EdgeKind = DeviceTopology::EdgeKind;

/// Union-find over node indices (path halving + union by size).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }

  /// Returns false when a and b were already in the same set (a cycle).
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }

  bool same(std::size_t a, std::size_t b) { return find(a) == find(b); }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

/// Per-node incidence counters accumulated from all device topologies.
struct NodeFacts {
  std::size_t terminals = 0;  ///< device-terminal attachments
  std::size_t edges = 0;      ///< incident edges of any kind
  std::size_t conductive = 0;
  std::size_t voltage = 0;
  std::size_t current = 0;
  std::size_t capacitive = 0;
};

const char* edge_kind_name(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kConductive: return "conductive";
    case EdgeKind::kVoltage: return "voltage-defined";
    case EdgeKind::kCurrent: return "current-defined";
    case EdgeKind::kCapacitive: return "capacitive";
  }
  return "?";
}

/// The largest |V| any independent voltage source reaches over all time:
/// the best available notion of "the supply rail" for actuation checks.
double infer_supply_rail(const std::vector<DeviceTopology>& topologies) {
  double rail = 0.0;
  for (const auto& topo : topologies) {
    for (const auto& edge : topo.edges) {
      if (edge.kind == EdgeKind::kVoltage && edge.is_source) {
        rail = std::max(rail, edge.max_abs);
      }
    }
  }
  return rail;
}

/// Graph rules: reachability, voltage loops, current cutsets, dangling
/// and capacitive-only nodes, conflicting parallel sources.
/// `flagged_nodes` receives the indices of nodes with graph *errors* so
/// the MNA-pattern rules can skip re-reporting the same defect.
void run_graph_rules(const Circuit& circuit,
                     const std::vector<DeviceTopology>& topologies,
                     ReportBuilder& out,
                     std::unordered_set<std::size_t>& flagged_nodes) {
  const std::size_t num_nodes = circuit.num_nodes();
  std::vector<NodeFacts> facts(num_nodes);
  UnionFind dc_reach(num_nodes);     // conductive + voltage edges
  UnionFind full_reach(num_nodes);   // every edge kind
  UnionFind voltage_loops(num_nodes);

  for (std::size_t d = 0; d < topologies.size(); ++d) {
    const auto& topo = topologies[d];
    const std::string& dev_name = circuit.device(d).name();
    for (const auto& term : topo.terminals) {
      ++facts[term.node.index].terminals;
    }
    for (const auto& edge : topo.edges) {
      const std::size_t a = topo.terminals.at(edge.a).node.index;
      const std::size_t b = topo.terminals.at(edge.b).node.index;
      for (std::size_t n : {a, b}) {
        ++facts[n].edges;
        switch (edge.kind) {
          case EdgeKind::kConductive: ++facts[n].conductive; break;
          case EdgeKind::kVoltage: ++facts[n].voltage; break;
          case EdgeKind::kCurrent: ++facts[n].current; break;
          case EdgeKind::kCapacitive: ++facts[n].capacitive; break;
        }
      }
      full_reach.unite(a, b);
      if (edge.kind == EdgeKind::kConductive || edge.kind == EdgeKind::kVoltage) {
        dc_reach.unite(a, b);
      }
      if (edge.kind == EdgeKind::kVoltage) {
        // A voltage-defined branch closing a cycle of voltage-defined
        // branches fixes a KVL sum that is generically inconsistent (and
        // exactly singular even when consistent).  Inductors are DC
        // shorts, so they participate; a == b is the degenerate loop.
        if (!voltage_loops.unite(a, b)) {
          std::ostringstream msg;
          msg << "voltage-defined branch of '" << dev_name << "' between "
              << "nodes '" << circuit.node_name(NodeId{a}) << "' and '"
              << circuit.node_name(NodeId{b})
              << "' closes a loop of voltage-defined branches (voltage "
                 "sources / VCVS outputs / inductors, which are DC "
                 "shorts); the MNA system is singular";
          out.add({LintSeverity::kError, "voltage-loop", dev_name, msg.str()});
        }
      }
    }
  }

  // Conflicting independent voltage sources on the same node pair.  The
  // loop rule already fires for any parallel pair; this names the value
  // conflict explicitly when there is one.
  std::map<std::pair<std::size_t, std::size_t>,
           std::vector<std::pair<std::string, double>>>
      sources_by_pair;
  for (std::size_t d = 0; d < topologies.size(); ++d) {
    for (const auto& edge : topologies[d].edges) {
      if (edge.kind != EdgeKind::kVoltage || !edge.is_source) continue;
      std::size_t a = topologies[d].terminals.at(edge.a).node.index;
      std::size_t b = topologies[d].terminals.at(edge.b).node.index;
      if (a > b) std::swap(a, b);
      sources_by_pair[{a, b}].push_back(
          {circuit.device(d).name(), edge.dc_value});
    }
  }
  for (const auto& [pair, sources] : sources_by_pair) {
    for (std::size_t i = 1; i < sources.size(); ++i) {
      if (sources[i].second != sources[0].second) {
        std::ostringstream msg;
        msg << "voltage sources '" << sources[0].first << "' ("
            << sources[0].second << " V) and '" << sources[i].first << "' ("
            << sources[i].second << " V) drive the same node pair '"
            << circuit.node_name(NodeId{pair.first}) << "'/'"
            << circuit.node_name(NodeId{pair.second})
            << "' with conflicting values";
        out.add({LintSeverity::kWarning, "parallel-voltage-sources",
                 sources[i].first, msg.str()});
      }
    }
  }

  // Per-node rules.  Ground (index 0) is exempt from all of them.
  const std::size_t ground = circuit.gnd().index;
  for (std::size_t n = 1; n < num_nodes; ++n) {
    const NodeFacts& f = facts[n];
    if (f.terminals == 0) continue;  // named but unused node: harmless
    const std::string& node_name = circuit.node_name(NodeId{n});

    if (f.edges > 0 && f.edges == f.current) {
      // Every incident branch prescribes its current, so KCL at this
      // node is an equation over constants and the node voltage appears
      // in no equation at all.
      std::ostringstream msg;
      msg << "node '" << node_name << "' is driven only by "
          << "current-defined branches (" << f.current
          << " attached); its KCL row fixes a sum of prescribed currents "
             "and its voltage is structurally undetermined";
      out.add({LintSeverity::kError, "current-cutset", node_name, msg.str()});
      flagged_nodes.insert(n);
    } else if (!dc_reach.same(n, ground)) {
      if (f.capacitive > 0 && full_reach.same(n, ground)) {
        std::ostringstream msg;
        msg << "node '" << node_name
            << "' reaches ground only through capacitive couplings; its "
               "DC voltage exists only thanks to the gmin shunt and the "
               "operating point will lean on the homotopy ladder";
        out.add({LintSeverity::kWarning, "capacitive-only-node", node_name,
                 msg.str()});
      } else {
        std::ostringstream msg;
        msg << "node '" << node_name
            << "' has no conductive path to ground";
        if (f.edges == 0) {
          msg << " (only sensing terminals attach to it)";
        }
        msg << "; its voltage is structurally undetermined";
        out.add({LintSeverity::kError, "floating-node", node_name, msg.str()});
        flagged_nodes.insert(n);
      }
    }

    if (f.terminals == 1) {
      const auto* only_edge_kind = [&]() -> const char* {
        // Find the single device terminal to name what dangles.
        for (std::size_t d = 0; d < topologies.size(); ++d) {
          for (const auto& edge : topologies[d].edges) {
            if (topologies[d].terminals.at(edge.a).node.index == n ||
                topologies[d].terminals.at(edge.b).node.index == n) {
              return edge_kind_name(edge.kind);
            }
          }
        }
        return nullptr;
      }();
      std::ostringstream msg;
      msg << "node '" << node_name << "' dangles: only one device "
          << "terminal attaches to it";
      if (only_edge_kind) msg << " (a " << only_edge_kind << " branch)";
      out.add({LintSeverity::kWarning, "dangling-node", node_name, msg.str()});
    }
  }
}

/// MNA-pattern rules: zero rows/columns and the full structural rank
/// check (a maximum bipartite matching on the pattern).
void run_structural_rules(const MnaSystem& system, ReportBuilder& out,
                          const std::unordered_set<std::size_t>& flagged_nodes) {
  const std::size_t n = system.num_unknowns();
  if (n == 0) return;

  // Union of the OP and transient structural stamps: an entry present in
  // either mode counts (a capacitor fixes a transient row even though it
  // vanishes at DC — DC-only singularity is the graph rules' job).  Both
  // are sorted and duplicate-free, so one merge gives their union.
  const auto op =
      system.structural_pattern(spice::AnalysisMode::kDcOperatingPoint);
  const auto tran = system.structural_pattern(spice::AnalysisMode::kTransient);
  std::vector<std::pair<std::size_t, std::size_t>> pattern;
  pattern.reserve(op.size() + tran.size());
  std::set_union(op.begin(), op.end(), tran.begin(), tran.end(),
                 std::back_inserter(pattern));

  // Map each node-voltage unknown back to its node index so defects
  // already reported by the graph rules are not re-reported here.
  std::vector<std::size_t> unknown_to_node(n, SIZE_MAX);
  const Circuit& circuit = system.circuit();
  for (std::size_t node = 1; node < circuit.num_nodes(); ++node) {
    const spice::UnknownId u = system.unknown_of(NodeId{node});
    if (u.valid()) unknown_to_node[u.index] = node;
  }
  auto already_flagged = [&](std::size_t unknown) {
    return unknown_to_node[unknown] != SIZE_MAX &&
           flagged_nodes.count(unknown_to_node[unknown]) != 0;
  };

  // CSR adjacency (row -> cols); the pattern is already in row order.
  std::vector<std::size_t> row_start(n + 1, 0), col_index, col_entries(n, 0);
  col_index.reserve(pattern.size());
  for (const auto& [row, col] : pattern) {
    col_index.push_back(col);
    ++row_start[row + 1];
    ++col_entries[col];
  }
  for (std::size_t i = 0; i < n; ++i) row_start[i + 1] += row_start[i];

  std::vector<bool> degenerate(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (row_start[i + 1] == row_start[i]) {
      degenerate[i] = true;
      if (already_flagged(i)) continue;
      std::ostringstream msg;
      msg << "equation row of unknown '" << system.unknown_info(i).name
          << "' has no structural entries: nothing the devices stamp "
             "constrains it";
      out.add({LintSeverity::kError, "zero-mna-row",
               system.unknown_info(i).name, msg.str()});
    }
    if (col_entries[i] == 0) {
      degenerate[i] = true;
      if (already_flagged(i)) continue;
      std::ostringstream msg;
      msg << "unknown '" << system.unknown_info(i).name
          << "' appears in no equation: no device stamp depends on it";
      out.add({LintSeverity::kError, "zero-mna-column",
               system.unknown_info(i).name, msg.str()});
    }
  }

  // A perfect matching of rows to columns is necessary for the Jacobian
  // to be generically nonsingular; its absence is a singularity no
  // numeric pivoting can fix.
  const std::vector<std::size_t> unmatched_rows =
      structurally_unmatched_rows(row_start, col_index);
  const std::size_t matched = n - unmatched_rows.size();

  // Report the rank deficit once, naming a few unmatched unknowns that
  // were not already explained by a zero row/column or a graph error.
  std::vector<std::string> fresh;
  for (std::size_t row : unmatched_rows) {
    if (degenerate[row] || already_flagged(row)) continue;
    fresh.push_back(system.unknown_info(row).name);
  }
  if (!fresh.empty()) {
    constexpr std::size_t kMaxNamed = 4;
    std::ostringstream msg;
    msg << "MNA structural rank is " << matched << " of " << n
        << ": no assignment of equations to unknowns covers ";
    for (std::size_t i = 0; i < fresh.size() && i < kMaxNamed; ++i) {
      if (i) msg << ", ";
      msg << "'" << fresh[i] << "'";
    }
    if (fresh.size() > kMaxNamed) {
      msg << " and " << (fresh.size() - kMaxNamed) << " more";
    }
    msg << "; the Jacobian is singular for every numeric value";
    out.add({LintSeverity::kError, "structural-rank", fresh.front(),
             msg.str()});
  }
}

/// Hint: device names that will not survive export -> parse.  The
/// netlist parser dispatches on the first letter of the element name, so
/// a Mosfet named "AL" comes back as something else entirely (or not at
/// all); whitespace never survives tokenization.
void run_name_rules(const Circuit& circuit,
                    const std::vector<DeviceTopology>& topologies,
                    ReportBuilder& out) {
  for (std::size_t d = 0; d < topologies.size(); ++d) {
    const char letter = topologies[d].element_letter;
    if (letter == 0) continue;  // no netlist form, nothing to round-trip
    // Devices elaborated from a subcircuit round-trip through the
    // .subckt body and the instance's X card, not through their scoped
    // global name, so the first-letter convention does not apply.
    if (circuit.device_instance(d) != nullptr) continue;
    const std::string& name = circuit.device(d).name();
    const bool bad_first =
        name.empty() ||
        std::toupper(static_cast<unsigned char>(name[0])) != letter;
    const bool has_space =
        std::any_of(name.begin(), name.end(), [](unsigned char c) {
          return std::isspace(c) != 0;
        });
    if (!bad_first && !has_space) continue;
    std::ostringstream msg;
    if (has_space) {
      msg << "device name '" << name << "' contains whitespace and cannot "
          << "survive netlist tokenization";
    } else {
      msg << "device name '" << name << "' does not start with its SPICE "
          << "element letter '" << letter << "'; re-parsing an exported "
          << "netlist would dispatch it as a different element";
    }
    out.add({LintSeverity::kHint, "name-convention", name, msg.str()});
  }
}

/// Hierarchy rule: a subcircuit instance port that nothing outside the
/// instance attaches to (the cell's terminal dangles into thin air), or
/// that the subcircuit body itself never uses (a dead formal).  Both are
/// almost always wiring mistakes at the instantiation site.
void run_hierarchy_rules(const Circuit& circuit,
                         const std::vector<DeviceTopology>& topologies,
                         ReportBuilder& out) {
  if (circuit.instances().empty()) return;

  // Terminal attachments per node, as a (device index) multiset in
  // ascending order.
  std::vector<std::vector<std::size_t>> attached(circuit.num_nodes());
  for (std::size_t d = 0; d < topologies.size(); ++d) {
    for (const auto& term : topologies[d].terminals) {
      attached[term.node.index].push_back(d);
    }
  }

  for (const auto& rec : circuit.instances()) {
    const auto def_it = circuit.subckt_defs().find(rec.subckt);
    for (std::size_t p = 0; p < rec.ports.size(); ++p) {
      const NodeId node = rec.ports[p];
      if (node.is_ground()) continue;  // ground is connected by definition
      // Nodes from Circuit::internal_node are declared private: a cell
      // output deliberately left unloaded (chain tail, probe-only wire).
      if (circuit.node_is_internal(node)) continue;
      // The instance's devices are one index range, so two binary
      // searches count them: a bitline shared by every cell of a column
      // is not rescanned once per cell.
      const std::vector<std::size_t>& devices = attached[node.index];
      const auto first = std::lower_bound(devices.begin(), devices.end(),
                                          rec.first_device);
      const auto last = std::lower_bound(first, devices.end(),
                                         rec.first_device + rec.num_devices);
      const auto inside = static_cast<std::size_t>(last - first);
      const std::size_t outside = devices.size() - inside;
      const std::string formal =
          def_it != circuit.subckt_defs().end() &&
                  p < def_it->second->ports().size()
              ? def_it->second->ports()[p]
              : std::to_string(p);
      const std::string& node_name = circuit.node_name(node);
      if (outside == 0) {
        std::ostringstream msg;
        msg << "port '" << formal << "' of subcircuit instance '" << rec.name
            << "' (" << rec.subckt << ") is bound to node '" << node_name
            << "', which nothing outside the instance connects to";
        out.add({LintSeverity::kWarning, "unconnected-subckt-port", rec.name,
                 msg.str()});
      } else if (inside == 0) {
        std::ostringstream msg;
        msg << "port '" << formal << "' of subcircuit instance '" << rec.name
            << "' (" << rec.subckt << ") is never used inside the "
            << "subcircuit body; node '" << node_name
            << "' only connects through the other side";
        out.add({LintSeverity::kWarning, "unconnected-subckt-port", rec.name,
                 msg.str()});
      }
    }
  }
}

}  // namespace

std::vector<std::size_t> structurally_unmatched_rows(
    std::span<const std::size_t> row_start,
    std::span<const std::size_t> col_index) {
  constexpr std::size_t kNone = SIZE_MAX;
  const std::size_t n = row_start.empty() ? 0 : row_start.size() - 1;
  std::vector<std::size_t> row_of_col(n, kNone);
  // Where each row's search for a free column resumes.  A matched column
  // stays matched, so the cursor only moves forward.
  const auto row_firsts = row_start.first(n);
  std::vector<std::size_t> lookahead(row_firsts.begin(), row_firsts.end());
  auto free_column = [&](std::size_t row) {
    while (lookahead[row] < row_start[row + 1]) {
      const std::size_t col = col_index[lookahead[row]++];
      if (row_of_col[col] == kNone) return col;
    }
    return kNone;
  };

  // Depth-first search state: the alternating path's rows, the column
  // that leads from each path row to the next, each row's next column to
  // descend through, and the root whose search last visited each column.
  std::vector<std::size_t> path, via, next(n), visited_by(n, kNone);
  std::vector<std::size_t> unmatched;
  for (std::size_t root = 0; root < n; ++root) {
    const auto cols = col_index.subspan(
        row_start[root], row_start[root + 1] - row_start[root]);
    const std::size_t cheap =
        row_of_col[root] == kNone && std::ranges::find(cols, root) != cols.end()
            ? root
            : free_column(root);
    if (cheap != kNone) {
      row_of_col[cheap] = root;
      continue;
    }

    path.assign(1, root);
    via.clear();
    next[root] = row_start[root];
    while (!path.empty()) {
      const std::size_t row = path.back();
      const std::size_t col = free_column(row);
      if (col != kNone) {
        // Augment: every path row moves to the column that led onward.
        row_of_col[col] = row;
        for (std::size_t k = via.size(); k-- > 0;) row_of_col[via[k]] = path[k];
        break;
      }
      // Every column of `row` is matched now: descend to an owner that
      // this search has not visited, or backtrack.
      bool descended = false;
      while (next[row] < row_start[row + 1]) {
        const std::size_t c = col_index[next[row]++];
        if (visited_by[c] == root) continue;
        visited_by[c] = root;
        const std::size_t owner = row_of_col[c];
        via.push_back(c);
        path.push_back(owner);
        next[owner] = row_start[owner];
        descended = true;
        break;
      }
      if (!descended) {
        path.pop_back();
        if (!via.empty()) via.pop_back();
      }
    }
    if (path.empty()) unmatched.push_back(root);
  }
  return unmatched;
}

const char* lint_severity_name(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kHint: return "hint";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "?";
}

std::string LintFinding::to_string() const {
  std::string line = lint_severity_name(severity);
  line += '[';
  line += rule;
  line += "] ";
  line += subject;
  line += ": ";
  line += message;
  return line;
}

std::string LintReport::summary() const {
  std::ostringstream os;
  for (const auto& finding : findings) {
    os << finding.to_string() << '\n';
  }
  os << "lint: " << errors << " error(s), " << warnings << " warning(s), "
     << hints << " hint(s)";
  if (findings.size() < errors + warnings + hints) {
    os << " (" << findings.size() << " shown)";
  }
  return os.str();
}

LintReport lint_system(const MnaSystem& system) {
  const Circuit& circuit = system.circuit();
  ReportBuilder out;

  std::vector<DeviceTopology> topologies;
  topologies.reserve(circuit.num_devices());
  for (std::size_t d = 0; d < circuit.num_devices(); ++d) {
    topologies.push_back(circuit.device(d).topology());
  }

  // Device-local checks, fed the circuit-level supply rail.
  DeviceCheckContext ctx;
  ctx.supply_rail = infer_supply_rail(topologies);
  std::vector<LintFinding> device_findings;
  for (std::size_t d = 0; d < circuit.num_devices(); ++d) {
    device_findings.clear();
    circuit.device(d).self_check(ctx, device_findings);
    for (auto& finding : device_findings) {
      if (finding.subject.empty()) finding.subject = circuit.device(d).name();
      out.add(std::move(finding));
    }
  }

  std::unordered_set<std::size_t> flagged_nodes;
  run_graph_rules(circuit, topologies, out, flagged_nodes);
  run_structural_rules(system, out, flagged_nodes);
  run_hierarchy_rules(circuit, topologies, out);
  run_name_rules(circuit, topologies, out);

  return out.take();
}

LintReport lint_circuit(Circuit& circuit) {
  MnaSystem system(circuit);
  return lint_system(system);
}

LintReport gate_findings(LintReport report, const char* pass, LintMode mode,
                         bool strict_rejects_warnings,
                         std::vector<LintFinding>* sink) {
  if (sink != nullptr) {
    sink->insert(sink->end(), report.findings.begin(), report.findings.end());
  }
  // Hints stay silent here (they are embedded in the run report): the
  // shipped experiment circuits deliberately use the paper's device
  // names ("AL", "INV0.P"), and a warn-level line on every analysis of
  // a perfectly simulable circuit would train users to ignore the log.
  if (!report.clean()) {
    log_warn(std::string(pass) + ": circuit has findings\n" +
             report.summary());
  }
  const std::size_t rejected =
      report.errors + (strict_rejects_warnings ? report.warnings : 0);
  if (mode == LintMode::kStrict && rejected != 0) {
    const char* noun = strict_rejects_warnings ? " finding(s)" : " error(s)";
    std::string what = std::string(pass) + " rejected circuit (strict mode): " +
                       std::to_string(rejected) + noun + "; first: " +
                       report.findings.front().to_string();
    throw LintError(what, std::move(report));
  }
  return report;
}

LintReport lint_gate(const MnaSystem& system, LintMode mode,
                     spice::RunReport* run_report) {
  if (mode == LintMode::kOff) return {};
  util::ScopedTimer timer(run_report ? &run_report->metrics : nullptr,
                          "phase.lint");
  return gate_findings(lint_system(system), "lint", mode,
                       /*strict_rejects_warnings=*/false,
                       run_report ? &run_report->lint_findings : nullptr);
}

}  // namespace nemsim::lint
