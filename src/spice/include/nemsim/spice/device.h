// Device abstraction: everything that stamps the MNA system.
//
// A device contributes residual (KCL/KVL) entries and Jacobian entries at
// the current Newton iterate.  Devices own their dynamic state (capacitor
// history, NEMS beam position) and commit it in `accept_step` after a
// transient step converges.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "nemsim/spice/analyze_types.h"
#include "nemsim/spice/ids.h"
#include "nemsim/spice/lint_types.h"

namespace nemsim::spice {

class SetupContext;
class StampContext;
class AcceptContext;
class AcStampContext;
class ParamBank;
class KernelLayout;
struct KernelDescriptor;

/// Which analysis the stamp is being evaluated for.
enum class AnalysisMode {
  kDcOperatingPoint,  ///< capacitors open, inductors short, mechanics static
  kTransient,         ///< companion models active
};

/// Structural self-description of a device for the pre-simulation lint
/// pass (nemsim/spice/lint.h): which nodes the device touches and how
/// each terminal pair is coupled in the DC / transient MNA structure.
/// This is graph-level metadata, deliberately independent of the stamp
/// values — lint reasons about *which* failure classes are possible, not
/// about numbers.
struct DeviceTopology {
  /// How a terminal pair is coupled.
  enum class EdgeKind {
    kConductive,  ///< finite DC conductance (R, diode, FET channel)
    kVoltage,     ///< ideal voltage-defined branch (V, VCVS, L as DC short)
    kCurrent,     ///< ideal current-defined branch (I, VCCS output)
    kCapacitive,  ///< charge-only coupling: no DC path (C, gate caps)
  };

  struct Terminal {
    const char* label;  ///< static terminal label ("p", "drain", ...)
    NodeId node;
  };

  struct Edge {
    EdgeKind kind = EdgeKind::kConductive;
    std::size_t a = 0, b = 0;  ///< indices into `terminals`
    /// Independent-source branches (V/I) only: marks the edge as a fixed
    /// excitation and carries its DC (t = 0) value plus its all-time
    /// maximum magnitude — used for supply-rail inference and the
    /// conflicting-parallel-sources check.
    bool is_source = false;
    double dc_value = 0.0;
    double max_abs = 0.0;
    /// Nominal element magnitude in the edge's natural unit — siemens
    /// for kConductive (a representative on-state conductance for
    /// nonlinear channels), farads for kCapacitive, henries for an
    /// inductor's kVoltage edge, siemens (gm) for a VCCS's kCurrent
    /// edge; 0 when not meaningful (source branches).  Feeds the
    /// analyzer's stiffness / conditioning predictions — order of
    /// magnitude is what matters, not precision.
    double magnitude = 0.0;
  };

  /// SPICE element letter the netlist exporter/parser dispatch on
  /// ('R', 'C', 'L', 'V', 'I', 'E', 'G', 'D', 'M', 'X'); 0 when the
  /// device has no netlist form.
  char element_letter = 0;
  std::vector<Terminal> terminals;
  std::vector<Edge> edges;

  /// Appends a terminal and returns its index (for add_edge).
  std::size_t add_terminal(const char* label, NodeId node) {
    terminals.push_back({label, node});
    return terminals.size() - 1;
  }
  /// Appends an edge between terminal indices `a` and `b`.
  Edge& add_edge(EdgeKind kind, std::size_t a, std::size_t b) {
    edges.push_back({kind, a, b});
    return edges.back();
  }
};

/// Base class for all circuit devices.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Requests extra unknowns (branch currents, internal states) and caches
  /// their ids.  Called once per analysis setup.
  virtual void setup(SetupContext& ctx) { (void)ctx; }

  /// Registers the device's tunable scalar parameters in the circuit's
  /// structure-of-arrays bank (nemsim/spice/parambank.h).  Called exactly
  /// once, by Circuit::register_device; afterwards the registered values
  /// live in the bank and the device reads them through its BankedParam
  /// handles.  Free-standing devices are never bound and keep the values
  /// inline.  The default registers nothing.
  virtual void bind_params(ParamBank& bank) { (void)bank; }

  /// Called after a bank overlay was applied or reverted
  /// (Circuit::notify_params_changed).  Devices that cache state derived
  /// from a banked parameter (companion capacitances sized from C or W, a
  /// source waveform mirroring its banked DC level) resync here; devices
  /// that read the bank directly at stamp time need nothing.
  virtual void on_params_changed() {}

  /// Adds residual and Jacobian contributions at the context's iterate.
  /// Must be side-effect free with respect to device state.  In-tree
  /// devices run their one role-indexed `eval` through a StampSink here
  /// (nemsim/spice/kernels.h); for a device without a kernel descriptor
  /// this is also how the engine assembles it.
  virtual void stamp(StampContext& ctx) const = 0;

  /// True when the device's Jacobian entries do not depend on the Newton
  /// iterate (only on mode/time/dt and committed device state).  The
  /// engine stamps linear devices' Jacobian once per solve and reuses the
  /// values across iterations; residuals are always re-stamped.
  virtual bool is_linear() const { return false; }

  /// Type-bucketed kernel support (nemsim/spice/kernels.h).  A device
  /// that can be evaluated by a batch kernel fills `out` with its bucket
  /// key, batch function, role unknowns and declared Jacobian cells; the
  /// engine then assembles it through the lanes.  The declared cells
  /// must cover every position the device can ever stamp (union over
  /// modes and runtime orientations) — undeclared cells drop writes
  /// silently.  The default leaves `out` unsupported: the engine stamps
  /// the device through Device::stamp.
  virtual void kernel_descriptor(const KernelLayout& layout,
                                 KernelDescriptor& out) const;

  /// Adds small-signal G/C/rhs contributions at the bias point in `ctx`.
  /// The default implementation throws: a device without an AC model must
  /// not silently vanish from an AC analysis.
  virtual void stamp_ac(AcStampContext& ctx) const;

  /// True when the device implements stamp_ac.  ac_analysis scans this
  /// *before* the bias solve and rejects the circuit with every
  /// AC-incapable device named (lint rule "ac-incapable-device"), instead
  /// of letting the default stamp_ac throw mid-assembly.  A device that
  /// overrides stamp_ac must override this to return true.
  virtual bool has_ac_model() const { return false; }

  /// Commits state after a converged solve (OP or transient step).
  virtual void accept_step(const AcceptContext& ctx) { (void)ctx; }

  /// Clears all dynamic state (new analysis from scratch).
  virtual void reset_state() {}

  /// Signals a derivative discontinuity (source edge).  Devices whose
  /// companion models use history across steps should fall back to a
  /// self-starting method (backward Euler) for the next step.
  virtual void notify_discontinuity() {}

  /// Time points the transient must land on exactly (source edges).
  virtual void breakpoints(double tstop, std::vector<double>& out) const {
    (void)tstop; (void)out;
  }

  /// Structural metadata for the lint pass.  The default returns an
  /// empty topology: such a device is invisible to the graph rules (no
  /// false positives), though the MNA-pattern rules still see whatever
  /// it stamps.  All in-tree devices override this.
  virtual DeviceTopology topology() const { return {}; }

  /// Device-local lint checks (non-physical parameters, can-never-actuate
  /// conditions, ...).  Implementations append findings to `out`; the
  /// analyzer fills in the `subject` field with the device name, so
  /// findings only need rule/severity/message.
  virtual void self_check(const lint::DeviceCheckContext& ctx,
                          std::vector<lint::LintFinding>& out) const {
    (void)ctx;
    (void)out;
  }

  /// Interval-transfer hook for the DC interval analysis
  /// (nemsim/spice/analyze.h).  Given the current per-node voltage
  /// intervals, appends the bounds this device can claim about its
  /// terminal nodes (see analyze::NodeClaim for the two claim kinds and
  /// their soundness conditions).  The default derives one kNeighbor
  /// claim per direction of every kConductive topology edge — correct
  /// for any device whose conductive edges are passive (current through
  /// the edge has the sign of the branch voltage), which holds for every
  /// in-tree device.  An override must cover each of its conductive
  /// edges with claims at least as wide, or the analysis loses soundness.
  virtual void interval_transfer(const analyze::IntervalSet& nodes,
                                 std::vector<analyze::NodeClaim>& out) const;

  /// Post-fixpoint semantic check: operating-region conclusions the
  /// device can prove from the converged intervals (NEMFET pull-in
  /// reachability, always-off channels, never-forward junctions).
  /// Verdicts with a non-empty `unknown` carry an OP-testable prediction
  /// that the differential checker verifies against a real solve.
  virtual void interval_check(const analyze::IntervalSet& nodes,
                              std::vector<analyze::RegionVerdict>& out) const {
    (void)nodes;
    (void)out;
  }

  /// One line of SPICE-style netlist for this device (node names resolved
  /// through `node_namer`).  The default emits a comment placeholder.
  virtual std::string netlist_line(
      const std::function<std::string(NodeId)>& node_namer) const {
    (void)node_namer;
    return "* " + name_ + " (no netlist exporter)";
  }

 private:
  std::string name_;
};

}  // namespace nemsim::spice
