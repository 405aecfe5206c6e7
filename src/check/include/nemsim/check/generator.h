// Seeded random circuit generator for the differential checker.
//
// generate_circuit(seed) is a pure function: the same seed always
// rebuilds the identical circuit (device-for-device, node-for-node), so
// the configuration-matrix executor can give every redundant engine path
// its own freshly built twin without sharing any device state between
// runs.  Generated circuits are structurally lint-clean by construction
// (every node has a DC path to ground, no voltage loops, no
// current-only cutsets) and use only netlist-exactly-representable
// parameter values drawn from E-series-style tables, so an
// export -> parse round trip reproduces bit-identical device parameters
// (the exporter prints at 6 significant digits; every table value prints
// and re-parses to the same double).
//
// Circuit shape: a supply rail (Vsup, DC vdd) and a stimulus source
// (Vin: DC, PULSE, or PWL) feed a seeded sequence of stages — RC
// dividers, RLC branches, diode clamps, CMOS inverters, NEMFET
// pull-downs, VCVS buffers, VCCS loads, and resistive bridges — each
// anchored to a previously created node.  The sparse-vs-dense leg runs
// both linear solvers at every stage count.
// NEMFET gates are tied to a rail (vdd or ground): the beam sits on a
// unique equilibrium branch, keeping every redundant-path comparison
// away from the bistable pull-in boundary where roundoff legitimately
// selects different branches.
#pragma once

#include <cstdint>
#include <string>

#include "nemsim/spice/circuit.h"

namespace nemsim::check {

struct GeneratorOptions {
  std::size_t min_stages = 3;
  std::size_t max_stages = 14;
  bool allow_inductors = true;
  bool allow_diodes = true;
  bool allow_mosfets = true;
  bool allow_nemfets = true;
  bool allow_controlled = true;
  double vdd = 1.2;  ///< supply (also the stimulus swing)
};

/// Everything the executor needs to know about a generated circuit
/// beyond its devices.
struct GeneratedInfo {
  std::string supply_source = "Vsup";
  std::string stimulus_source = "Vin";
  double vdd = 1.2;
  double tstop = 4e-9;  ///< transient horizon covering the stimulus edges
  std::size_t stages = 0;
  bool has_nemfet = false;
  bool has_mosfet = false;
  bool has_diode = false;
  /// Hierarchical-twin node/unknown names carry this instance prefix
  /// ("Xdut."); stripping it maps wrapped names onto flat ones.
  std::string wrap_prefix = "Xdut.";
};

/// Builds the circuit for `seed`.  With `wrap_in_subckt` the identical
/// stage sequence is elaborated through a Subcircuit instance ("Xdut")
/// instead of flat — same node-creation and device order, so the MNA
/// systems are twins and the flat/hierarchical contract is bitwise.
spice::Circuit generate_circuit(std::uint64_t seed,
                                const GeneratorOptions& options = {},
                                GeneratedInfo* info = nullptr,
                                bool wrap_in_subckt = false);

}  // namespace nemsim::check
