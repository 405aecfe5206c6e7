// Hierarchical netlists: subcircuit definitions and scoped elaboration.
//
// A Subcircuit is a reusable cell: an ordered list of formal ports, a
// builder callback that populates devices, and default parameter values.
// Instantiation (Circuit::instantiate or, from inside a builder,
// SubcircuitScope::instantiate) *flattens* the definition into the parent
// Circuit immediately — there is no hierarchical solver.  Every local
// device and node gets a dot-scoped name ("Xcol.Xcell3.ql"), so the MNA
// engine, Newton, the sparse fast path, RunReport, lint and analyze all
// work unchanged but report hierarchical paths.
//
// Scoping rules:
//  - Instance names must start with 'X' (SPICE convention; required for
//    netlist round trips) and may not contain '.'.
//  - Inside a builder, SubcircuitScope::node("q") resolves to the actual
//    node bound to formal port "q" when "q" is a port, to ground for
//    "0", and otherwise to the scoped name "<path>.q" (created on first
//    use).  Builders cannot reach nodes outside their scope except
//    through ports — cells stay encapsulated.
//  - Parameter precedence: per-instance overrides > definition defaults.
//    Unknown override keys are allowed (a builder may consult arbitrary
//    keys via param()).
//
// The Circuit records every elaborated instance
// (SubcircuitInstanceRecord: contiguous device range, bound port nodes,
// overrides, parent link) and registers the definition, so
// export_netlist can emit proper .subckt/.ends blocks and X cards
// instead of the flattened device soup.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "nemsim/spice/circuit.h"
#include "nemsim/spice/ids.h"

namespace nemsim::spice {

class SubcircuitScope;

/// A subcircuit definition: name, ordered formal ports, builder callback,
/// and default parameters.  Copyable; Circuit keeps a registered copy per
/// definition name for netlist export.
class Subcircuit {
 public:
  using Builder = std::function<void(SubcircuitScope&)>;

  Subcircuit(std::string name, std::vector<std::string> ports,
             Builder builder, SubcktParams defaults = {});

  const std::string& name() const { return name_; }
  const std::vector<std::string>& ports() const { return ports_; }
  std::size_t num_ports() const { return ports_.size(); }
  const SubcktParams& defaults() const { return defaults_; }

  /// Runs the builder into `scope` (called by the elaboration pass).
  void build(SubcircuitScope& scope) const;

  /// Verbatim source body lines for netlist export (set by the netlist
  /// parser for deck-defined subcircuits, so "{KEY}" parameter
  /// placeholders survive a round trip).  When empty, the exporter
  /// renders the body by expanding the builder at default parameters.
  const std::vector<std::string>& body_text() const { return body_text_; }
  void set_body_text(std::vector<std::string> lines);

 private:
  std::string name_;
  std::vector<std::string> ports_;
  Builder builder_;
  SubcktParams defaults_;
  std::vector<std::string> body_text_;
};

/// The builder's window into the parent circuit during elaboration:
/// resolves local names to scoped globals, binds formal ports to actual
/// nodes, and merges parameter overrides over defaults.
class SubcircuitScope {
 public:
  /// The circuit being elaborated into (for direct, already-scoped use).
  Circuit& circuit() { return circuit_; }

  /// Full hierarchical instance path, e.g. "Xcol.Xcell3".
  const std::string& path() const { return path_; }

  /// Actual node bound to the i-th formal port.
  NodeId port(std::size_t i) const;
  /// Actual node bound to the formal port named `formal`; throws
  /// NetlistError when no such port exists.
  NodeId port(const std::string& formal) const;

  /// Resolves a local node name ("0" -> ground, formal port -> bound
  /// actual, anything else -> "<path>.<local>", created on first use).
  NodeId node(const std::string& local);

  /// The scoped global name "<path>.<local>".
  std::string scoped(const std::string& local) const;

  /// Effective parameter value: instance override, else definition
  /// default, else `fallback`.
  double param(const std::string& key, double fallback) const;
  /// Effective parameter value; throws NetlistError when the key is
  /// neither overridden nor defaulted.
  double param(const std::string& key) const;
  bool has_param(const std::string& key) const;
  /// The full merged parameter map (overrides layered over defaults).
  const SubcktParams& params() const { return params_; }

  /// Adds a device under its scoped name and returns a reference to it.
  template <typename T, typename... Args>
  T& add(const std::string& local_name, Args&&... args) {
    return circuit_.add<T>(scoped(local_name), std::forward<Args>(args)...);
  }

  /// Elaborates a nested instance (local name must start with 'X').
  void instantiate(const Subcircuit& def, const std::string& local_inst,
                   const std::vector<NodeId>& actuals,
                   const SubcktParams& overrides = {});

 private:
  friend class Circuit;
  SubcircuitScope(Circuit& circuit, std::string path,
                  const Subcircuit& def, std::vector<NodeId> actuals,
                  SubcktParams params);

  Circuit& circuit_;
  std::string path_;
  const Subcircuit& def_;
  std::vector<NodeId> actuals_;
  SubcktParams params_;  ///< merged: overrides over defaults
};

}  // namespace nemsim::spice
