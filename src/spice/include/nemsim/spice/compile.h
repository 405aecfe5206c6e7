// Compile/execute split: build a circuit once, run it many times.
//
// `compile()` consumes a finished Circuit and returns an immutable
// CompiledCircuit: the elaborated device list in stamp order, the frozen
// unknown table, and lint/analyze findings memoized from a single
// compile-time pass.  The kernel plan and the Jacobian sparsity pattern
// are built by the first run and serve every later one: the device list
// they derive from is frozen.  Structural mutation of the compiled
// circuit throws; parameter writes stay open through SoA bank overlays,
// which is what makes N Monte-Carlo variants N cheap patches over one
// compiled program instead of N rebuilt circuits (DESIGN.md section 7h).
//
// Execution contract: every run_* entry point resets committed device
// state first, so runs are order-independent — run A then B produces
// the same B as running B alone.  Each run constructs its own
// NewtonSolver and is bitwise identical to the legacy drivers on a
// freshly built circuit.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "nemsim/spice/ac.h"
#include "nemsim/spice/analysis.h"
#include "nemsim/spice/analyze.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/lint.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/parambank.h"
#include "nemsim/spice/transient.h"
#include "nemsim/spice/waveform.h"

namespace nemsim::spice {

struct CompileOptions {
  /// Newton settings baked into every run of the compiled program (the
  /// per-run options' `newton` field is ignored so all variants of a
  /// batch solve under one configuration).
  NewtonOptions newton;
  /// Structural lint, run once at compile time; findings are memoized
  /// on the CompiledCircuit and the per-run gates are forced off.
  /// kStrict throws LintError at compile() on errors.
  lint::LintMode lint = lint::LintMode::kWarn;
  /// Semantic analysis gate, same once-at-compile treatment.
  lint::LintMode analyze = lint::LintMode::kOff;
  /// Optional diagnostics sink for the compile-time passes.
  RunReport* report = nullptr;
};

/// An immutable compiled simulation program.  Move-only; owns the
/// Circuit and MnaSystem it was compiled from (both heap-held, so
/// device/system references stay valid across moves).
class CompiledCircuit {
 public:
  CompiledCircuit(CompiledCircuit&&) noexcept = default;
  CompiledCircuit& operator=(CompiledCircuit&&) noexcept = default;
  CompiledCircuit(const CompiledCircuit&) = delete;
  CompiledCircuit& operator=(const CompiledCircuit&) = delete;

  /// The compiled netlist.  Structure is frozen (adding devices or
  /// nodes throws NetlistError); parameter setters remain usable.
  Circuit& circuit() { return *circuit_; }
  const Circuit& circuit() const { return *circuit_; }
  /// The frozen MNA view (unknown table; sparsity pattern from the first
  /// run on).
  MnaSystem& system() { return *system_; }
  const MnaSystem& system() const { return *system_; }
  /// The SoA parameter bank (shared with circuit().param_bank()).
  ParamBank& params() { return circuit_->param_bank(); }

  /// Lint findings memoized at compile time.
  const lint::LintReport& lint_findings() const { return lint_findings_; }
  /// Analyze findings memoized at compile time (empty when the analyze
  /// gate was kOff).
  const lint::LintReport& analyze_findings() const {
    return analyze_findings_;
  }
  /// Bank contents as of compile(): the base every overlay starts from.
  const ParamBank::Snapshot& base_params() const { return base_params_; }

  /// Installs a parameter variant: restores the compile-time base, then
  /// applies `patch` and broadcasts on_params_changed.  Writing through
  /// device setters and overlaying the same values hit the same bank
  /// slots, so the two routes produce bitwise-identical runs.
  void set_overlay(const ParamPatch& patch);
  /// Back to the compile-time base parameters.
  void clear_overlay();

  /// Per-run entry points.  Each resets committed device state first,
  /// then runs the legacy driver with lint/analyze forced off (already
  /// memoized) and the compiled Newton configuration.
  OpResult run_op(OpOptions options = {});
  Waveform run_transient(TransientOptions options);
  Waveform run_dc_sweep(const std::function<void(double)>& set_param,
                        std::span<const double> points,
                        DcSweepOptions options = {});
  AcResult run_ac(std::span<const double> frequencies,
                  AcOptions options = {});

 private:
  friend CompiledCircuit compile(Circuit&& circuit,
                                 const CompileOptions& options);
  CompiledCircuit() = default;

  /// Applies the compiled execution policy to one run's options.
  void prepare_run(AnalysisCommon& common);

  std::unique_ptr<Circuit> circuit_;
  std::unique_ptr<MnaSystem> system_;
  NewtonOptions newton_;
  lint::LintReport lint_findings_;
  lint::LintReport analyze_findings_;
  ParamBank::Snapshot base_params_;
};

/// Compiles `circuit` (consumed) into an executable program: runs the
/// lint/analyze gates once, builds the unknown table, freezes the
/// circuit structure, and snapshots the parameter bank as the overlay
/// base.
CompiledCircuit compile(Circuit&& circuit, const CompileOptions& options = {});

}  // namespace nemsim::spice
