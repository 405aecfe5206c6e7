// MNA engine: unknown allocation, stamping contexts, system assembly.
//
// Residual convention: for every node n (except ground) the equation is
//   f_n(x) = sum of currents *leaving* node n through all devices = 0
// Devices add current contributions with `add_f` and the matching partial
// derivatives with `add_J`; Newton then solves J*dx = -f.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nemsim/linalg/matrix.h"
#include "nemsim/linalg/sparse.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/device.h"
#include "nemsim/spice/ids.h"
#include "nemsim/util/error.h"

namespace nemsim::spice {

class MnaSystem;
struct KernelPlan;

/// Handed to Device::setup so devices can claim extra unknowns.
class SetupContext {
 public:
  explicit SetupContext(MnaSystem& system) : system_(system) {}

  /// Claims a branch-current unknown (for voltage sources, inductors).
  UnknownId add_branch_current(const std::string& name);

  /// Claims a device-internal unknown with explicit tolerances/limits.
  /// `row_abstol` is the absolute residual floor of the matching equation.
  UnknownId add_internal(const std::string& name, double abstol,
                         double row_abstol, double max_newton_step,
                         double initial_guess);

 private:
  MnaSystem& system_;
};

/// Read-only access to a converged solution vector, with node helpers.
class Solution {
 public:
  Solution(const MnaSystem& system, const linalg::Vector& x)
      : system_(&system), x_(&x) {}

  /// Voltage of `node` (0 for ground).  Inline, like x(): every
  /// accept_step reads its terminals through them.
  double v(NodeId node) const;
  /// Value of any unknown.
  double x(UnknownId unknown) const;

  const linalg::Vector& raw() const { return *x_; }
  const MnaSystem& system() const { return *system_; }

 private:
  const MnaSystem* system_;
  const linalg::Vector* x_;
};

/// Stamping interface passed to Device::stamp.
///
/// The Jacobian sink is pluggable: dense matrix, CSR matrix (per-entry
/// slot search; a cell outside the pattern throws), pattern recorder
/// (symbolic pass), or none (residual-only assembly).  Devices
/// see the same add_f/add_J interface in every case.  The engine's own
/// assembly runs the kernel lanes (nemsim/spice/kernels.h) and uses a
/// StampContext only for the sinks and for devices without a kernel
/// descriptor.
class StampContext {
 public:
  /// Dense Jacobian sink.
  StampContext(const MnaSystem& system, const linalg::Vector& x,
               linalg::Matrix& jacobian, linalg::Vector& residual,
               linalg::Vector& residual_scale);

  /// Sparse (CSR) Jacobian sink; an entry outside the frozen pattern
  /// throws InvalidArgument naming its row and column unknowns.  Pass
  /// `jacobian == nullptr` for residual-only assembly.
  StampContext(const MnaSystem& system, const linalg::Vector& x,
               linalg::CsrMatrix* jacobian, linalg::Vector& residual,
               linalg::Vector& residual_scale);

  /// Disables residual/scale accumulation (Jacobian-only assembly).
  void disable_residual() { want_residual_ = false; }
  /// Switches the Jacobian sink to a pattern recorder (symbolic pass).
  void record_pattern(
      std::vector<std::pair<std::size_t, std::size_t>>& pattern);

  AnalysisMode mode() const { return mode_; }
  /// End time of the step being solved (transient), or 0 for OP.
  double time() const { return time_; }
  /// Step size (transient only; 0 for OP).
  double dt() const { return dt_; }
  /// Shunt conductance to ground added at every node (homotopy aid).
  double gmin() const { return gmin_; }
  /// Scale factor applied by sources during source stepping, in [0,1].
  double source_factor() const { return source_factor_; }

  /// Value of node voltage at the current Newton iterate.
  double v(NodeId node) const;
  /// Value of any unknown at the current Newton iterate.
  double x(UnknownId unknown) const;

  /// Adds `current` (amperes, leaving the node) to node equation `eq`.
  void add_f(NodeId eq, double current);
  /// Adds `value` to an arbitrary equation row (branch/internal rows).
  void add_f(UnknownId eq, double value);

  /// Jacobian entries d f(eq) / d x(var); ground rows/cols are dropped.
  void add_J(NodeId eq, NodeId var, double dfdx);
  void add_J(NodeId eq, UnknownId var, double dfdx);
  void add_J(UnknownId eq, NodeId var, double dfdx);
  void add_J(UnknownId eq, UnknownId var, double dfdx);

  // Engine-side configuration (not for devices).
  void configure(AnalysisMode mode, double time, double dt, double gmin,
                 double source_factor);

  // --- Kernel plumbing (engine-internal, not for devices) --------------
  // The system (role-unknown lookups for StampSink) and raw views over
  // the attached sinks so the batched lane path (nemsim/spice/kernels.h)
  // can scatter directly into storage.

  const MnaSystem& system() const { return system_; }

  bool wants_residual() const { return want_residual_; }
  const double* iterate_data() const { return x_.data(); }
  linalg::Matrix* dense_sink() const { return dense_jacobian_; }
  linalg::CsrMatrix* sparse_sink() const { return sparse_jacobian_; }
  double* residual_data() { return residual_.data(); }
  double* residual_scale_data() { return residual_scale_.data(); }

 private:
  void raw_f(UnknownId eq, double value);
  void raw_J(UnknownId eq, UnknownId var, double value);

  const MnaSystem& system_;
  const linalg::Vector& x_;
  linalg::Matrix* dense_jacobian_ = nullptr;
  linalg::CsrMatrix* sparse_jacobian_ = nullptr;
  std::vector<std::pair<std::size_t, std::size_t>>* pattern_ = nullptr;
  linalg::Vector& residual_;
  linalg::Vector& residual_scale_;
  bool want_residual_ = true;
  AnalysisMode mode_ = AnalysisMode::kDcOperatingPoint;
  double time_ = 0.0;
  double dt_ = 0.0;
  double gmin_ = 0.0;
  double source_factor_ = 1.0;
};

/// Passed to Device::accept_step after a converged solve.
class AcceptContext {
 public:
  AcceptContext(const Solution& solution, AnalysisMode mode, double time,
                double dt)
      : solution_(solution), mode_(mode), time_(time), dt_(dt) {}

  double v(NodeId node) const { return solution_.v(node); }
  double x(UnknownId unknown) const { return solution_.x(unknown); }
  AnalysisMode mode() const { return mode_; }
  double time() const { return time_; }
  double dt() const { return dt_; }
  const Solution& solution() const { return solution_; }

 private:
  const Solution& solution_;
  AnalysisMode mode_;
  double time_;
  double dt_;
};

/// The assembled MNA problem over a circuit.
///
/// Owns the unknown table (node voltages first, then device-claimed
/// unknowns) and provides assembly of residual + Jacobian at an iterate.
class MnaSystem {
 public:
  /// Builds the unknown table by running Device::setup on every device.
  explicit MnaSystem(Circuit& circuit);
  ~MnaSystem();  // out-of-line: KernelPlan is incomplete here

  Circuit& circuit() { return circuit_; }
  const Circuit& circuit() const { return circuit_; }

  std::size_t num_unknowns() const { return unknowns_.size(); }
  const UnknownInfo& unknown_info(std::size_t i) const { return unknowns_.at(i); }

  /// Unknown for a node's voltage; invalid for ground.
  UnknownId unknown_of(NodeId node) const;
  /// Unknown by display name ("v(out)", "i(Vdd)", ...); throws if absent.
  UnknownId unknown_by_name(const std::string& name) const;
  bool has_unknown(const std::string& name) const;

  /// Initial iterate: zeros for node voltages (unless a nodeset entry
  /// overrides) and per-unknown initial guesses for device internals.
  linalg::Vector initial_guess() const;

  /// Overrides the cold-start guess of a node voltage (SPICE .nodeset).
  void set_nodeset(NodeId node, double volts);
  void clear_nodesets();

  /// Assembles residual/Jacobian at iterate `x`.  `residual_scale`
  /// accumulates sum(|contribution|) per row for relative convergence
  /// checks.  The StampContext must have been `configure`d by the caller.
  void assemble(const linalg::Vector& x, linalg::Matrix& jacobian,
                linalg::Vector& residual, linalg::Vector& residual_scale,
                AnalysisMode mode, double time, double dt, double gmin,
                double source_factor) const;

  /// Residual + scale only (no Jacobian work), bit for bit those of
  /// `assemble`: the dense Newton oracle's residual-only trials.
  void assemble_residual(const linalg::Vector& x, linalg::Vector& residual,
                         linalg::Vector& residual_scale, AnalysisMode mode,
                         double time, double dt, double gmin,
                         double source_factor) const;

  // --- Sparse fast path (pattern-frozen CSR assembly) ------------------
  //
  // The Jacobian sparsity pattern is fixed when the kernel plan is built
  // and never changes afterwards: the plan's declared cells (every cell
  // an in-tree device can stamp, in any mode and orientation), the full
  // diagonal, and the cells the descriptor-less devices stamp in one OP
  // and one transient recording pass at the cold-start iterate.  A
  // descriptor-less device must stamp a fixed cell set: a write outside
  // the pattern throws InvalidArgument.

  /// Raw structural Jacobian pattern of one recording stamp pass in
  /// `mode`: exactly the (row, col) positions devices stamp, with no
  /// gmin shunts and no forced diagonals (unlike the solver pattern,
  /// which unions modes and completes the diagonal).  Sorted and
  /// deduplicated.  This is the probe behind the lint structural rules
  /// (zero rows/columns, structural rank — nemsim/spice/lint.h).
  std::vector<std::pair<std::size_t, std::size_t>> structural_pattern(
      AnalysisMode mode) const;
  /// A zero-valued CSR skeleton over the solver's pattern (builds the
  /// kernel plan on first use).  The sparse assembly entry points take
  /// only this system's skeletons: one of another size or nonzero count
  /// throws InvalidArgument.
  linalg::CsrMatrix make_sparse_jacobian() const;

  /// Full sparse assembly (residual + Jacobian).  With a non-null
  /// `linear_baseline` (from assemble_linear_jacobian), linear devices'
  /// Jacobian values are taken from the baseline and only nonlinear
  /// devices are re-stamped into the Jacobian.  Always returns true.
  bool assemble_sparse(const linalg::Vector& x, linalg::CsrMatrix& jacobian,
                       linalg::Vector& residual,
                       linalg::Vector& residual_scale, AnalysisMode mode,
                       double time, double dt, double gmin,
                       double source_factor,
                       const std::vector<double>* linear_baseline
                       = nullptr) const;

  /// Residual + scale only, bit for bit those of `assemble_sparse` with a
  /// linear baseline: nonlinear devices, then linear ones, then the gmin
  /// shunt (assemble_residual stamps linear devices first, so its sums
  /// round differently).  The sparse Newton path's residual-only trials.
  void assemble_sparse_residual(const linalg::Vector& x,
                                linalg::Vector& residual,
                                linalg::Vector& residual_scale,
                                AnalysisMode mode, double time, double dt,
                                double gmin, double source_factor) const;

  /// Stamps only the linear devices' Jacobian into `jacobian` (values
  /// valid for the whole Newton solve at fixed mode/time/dt) and copies
  /// them into `baseline`.  Always returns true.
  bool assemble_linear_jacobian(const linalg::Vector& x,
                                linalg::CsrMatrix& jacobian,
                                std::vector<double>& baseline,
                                AnalysisMode mode, double time,
                                double dt) const;

  /// Cumulative nonlinear-device model evaluations run in Newton
  /// assembly passes (lanes and Device::stamp leftovers alike; symbolic
  /// and pattern passes are not counted).
  std::int64_t nonlinear_evals() const { return nonlinear_evals_; }

  /// The type-bucketed evaluation plan (nemsim/spice/kernels.h) every
  /// assembly runs through: devices with a kernel descriptor are
  /// evaluated in lanes that scatter f/J straight into CSR/dense storage
  /// through frozen slot maps; the rest are stamped through Device::stamp
  /// after them.  Built on first use (the first assembly, Newton solve or
  /// make_sparse_jacobian), together with the solver's Jacobian pattern
  /// and the lanes' CSR slots into it.  Exposed for tests and the
  /// per-bucket counters.
  const KernelPlan& kernel_plan() const;
  /// Regroups the plan's lanes into candidate classes for exact
  /// evaluation sharing (DESIGN.md §7k) from the devices' current
  /// twin_key bits.  Runs with the plan build and at every analysis entry
  /// (NewtonSolver construction); a no-op before the plan exists.  The
  /// classes only pick candidates: a replay always needs the complete
  /// input to match in the pass itself.
  void regroup_twins() const;

  /// Cumulative assembly passes that re-keyed the class members' twin
  /// state ids because the circuit's mutation generation had moved
  /// (ParamBank::generation, DESIGN.md §7k).
  std::int64_t twin_rekeys() const { return twin_rekeys_; }

  /// Commits the converged solution `x`: accept_step on every device,
  /// once per distinct state within a sharing class (DESIGN.md §7k).  A
  /// class member whose state id and accepted role values equal those of
  /// an earlier member adopts that member's committed state; the members'
  /// new state ids are carried to the next solve.  Returns how many
  /// members adopted.
  std::size_t accept(const linalg::Vector& x, AnalysisMode mode, double time,
                     double dt);
  /// Calls reset_state on every device.
  void reset_devices();
  /// Calls notify_discontinuity on every device.
  void notify_discontinuity();

  /// Collects and sorts distinct breakpoints in (0, tstop].
  std::vector<double> breakpoints(double tstop) const;

  // Used by SetupContext.
  UnknownId allocate_unknown(UnknownInfo info);

 private:
  enum class DeviceSet { kAll, kLinear, kNonlinear };
  /// Lane-batched assembly through the kernel plan; devices without a
  /// descriptor go through stamp_one.  `hot` marks the Newton assembly
  /// passes, whose nonlinear evaluations are counted (the linear-baseline
  /// and linear-residual passes are not).
  void stamp_devices(StampContext& ctx, DeviceSet set, bool hot) const;
  void stamp_one(StampContext& ctx, std::size_t device_index,
                 bool hot) const;
  /// Records the Jacobian positions of one Device::stamp pass over every
  /// device into `ctx`'s pattern recorder.
  void record_devices(StampContext& ctx) const;
  /// Builds the kernel plan: lanes, rows, declared cells, dense slots,
  /// the Jacobian pattern (KernelPlan::skeleton) and the CSR slots.
  void build_kernel_plan() const;
  /// Keys the class members' twin state ids unless they already hold for
  /// the circuit's current mutation generation.
  void key_twins_if_stale(KernelPlan& plan) const;
  /// Adds the gmin shunt's Jacobian part, gmin on the diagonal of every
  /// node row of `jacobian`.
  void stamp_gmin_sparse(double gmin, linalg::CsrMatrix& jacobian) const;
  /// The gmin shunt's residual part: gmin * x on every node row.
  void stamp_gmin_residual(const linalg::Vector& x, double gmin,
                           linalg::Vector& residual) const;

  Circuit& circuit_;
  std::vector<UnknownInfo> unknowns_;
  std::unordered_map<std::string, std::size_t> unknown_index_;
  std::vector<std::size_t> linear_devices_;
  std::vector<std::size_t> nonlinear_devices_;
  /// Per device index: 1 linear, 0 nonlinear.
  std::vector<std::uint8_t> device_linear_;
  /// Backs nonlinear_evals() (mutable: assembly is logically const).
  mutable std::int64_t nonlinear_evals_ = 0;
  // Type-bucketed kernel plan and Jacobian pattern, built on first use
  // (lane counters and twin state ids mutate it during const assembly).
  mutable std::unique_ptr<KernelPlan> kernel_plan_;
  /// Backs twin_rekeys().
  mutable std::int64_t twin_rekeys_ = 0;
};

inline UnknownId MnaSystem::unknown_of(NodeId node) const {
  if (node.is_ground()) return kNoUnknown;
  require(node.index < circuit_.num_nodes(), "unknown_of: node out of range");
  return UnknownId{node.index - 1};
}

inline double Solution::v(NodeId node) const {
  if (node.is_ground()) return 0.0;
  return (*x_)[system_->unknown_of(node).index];
}

inline double Solution::x(UnknownId unknown) const {
  require(unknown.valid(), "Solution::x: invalid unknown");
  return (*x_)[unknown.index];
}

}  // namespace nemsim::spice
