#include "nemsim/spice/compile.h"

#include <utility>

namespace nemsim::spice {

CompiledCircuit compile(Circuit&& circuit, const CompileOptions& options) {
  CompiledCircuit compiled;
  compiled.circuit_ = std::make_unique<Circuit>(std::move(circuit));
  compiled.system_ = std::make_unique<MnaSystem>(*compiled.circuit_);
  compiled.newton_ = options.newton;

  // One-time gates; per-run gates are forced off in prepare_run.
  compiled.lint_findings_ =
      lint::lint_gate(*compiled.system_, options.lint, options.report);
  compiled.analyze_findings_ = analyze::analyze_gate(
      *compiled.circuit_, options.analyze, options.report);

  // From here on the device list and unknown table must stay valid.
  compiled.circuit_->freeze_structure();
  compiled.base_params_ = compiled.circuit_->param_bank().snapshot();
  return compiled;
}

void CompiledCircuit::set_overlay(const ParamPatch& patch) {
  ParamBank& bank = circuit_->param_bank();
  bank.restore(base_params_);
  bank.apply(patch);
  circuit_->notify_params_changed();
}

void CompiledCircuit::clear_overlay() {
  circuit_->param_bank().restore(base_params_);
  circuit_->notify_params_changed();
}

void CompiledCircuit::prepare_run(AnalysisCommon& common) {
  common.newton = newton_;
  common.lint = lint::LintMode::kOff;
  common.analyze = lint::LintMode::kOff;
  // Per-run state ownership: committed device state (companion history,
  // NEMS branch memory) never leaks from one run into the next.
  system_->reset_devices();
}

OpResult CompiledCircuit::run_op(OpOptions options) {
  prepare_run(options);
  return operating_point(*system_, options);
}

Waveform CompiledCircuit::run_transient(TransientOptions options) {
  prepare_run(options);
  return transient(*system_, options);
}

Waveform CompiledCircuit::run_dc_sweep(
    const std::function<void(double)>& set_param,
    std::span<const double> points, DcSweepOptions options) {
  prepare_run(options);
  return dc_sweep(*system_, set_param, points, options);
}

AcResult CompiledCircuit::run_ac(std::span<const double> frequencies,
                                 AcOptions options) {
  prepare_run(options);
  return ac_analysis(*system_, frequencies, options);
}

}  // namespace nemsim::spice
