#include "nemsim/check/checker.h"

#include <cmath>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>

#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/sources.h"
#include "nemsim/spice/analyze.h"
#include "nemsim/spice/compile.h"
#include "nemsim/spice/dcsweep.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/netlist_export.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/netlist_parser.h"
#include "nemsim/util/error.h"
#include "nemsim/util/parallel.h"

namespace nemsim::check {

const char* to_string(Analysis a) {
  switch (a) {
    case Analysis::kOp: return "op";
    case Analysis::kTransient: return "tran";
    case Analysis::kDcSweep: return "dcsweep";
  }
  return "?";
}

const char* to_string(Contract c) {
  switch (c) {
    case Contract::kDeterminism: return "determinism";
    case Contract::kRoundTrip: return "round-trip";
    case Contract::kHierarchy: return "hierarchy";
    case Contract::kParallelSweep: return "parallel-sweep";
    case Contract::kSparseVsDense: return "sparse-vs-dense";
    case Contract::kAnalyze: return "analyze";
    case Contract::kCompiled: return "compiled";
  }
  return "?";
}

bool contract_is_bitwise(Contract c) {
  switch (c) {
    case Contract::kDeterminism:
    case Contract::kRoundTrip:
    case Contract::kHierarchy:
    case Contract::kParallelSweep:
    case Contract::kCompiled:
      return true;
    default:
      return false;
  }
}

Analysis parse_analysis(const std::string& s) {
  for (Analysis a : {Analysis::kOp, Analysis::kTransient, Analysis::kDcSweep}) {
    if (s == to_string(a)) return a;
  }
  throw InvalidArgument("unknown analysis '" + s +
                        "' (expected op, tran, or dcsweep)");
}

Contract parse_contract(const std::string& s) {
  for (Contract c : kAllContracts) {
    if (s == to_string(c)) return c;
  }
  throw InvalidArgument("unknown contract '" + s + "'");
}

namespace {

using spice::Waveform;

/// One engine configuration of the redundant-path matrix.
struct LegConfig {
  spice::JacobianSolver solver = spice::JacobianSolver::kDense;
};

spice::NewtonOptions newton_for(const LegConfig& leg,
                                const CheckOptions& opts) {
  spice::NewtonOptions n;
  n.solver = leg.solver;
  // The sparse leg is kSparseVsDense's variant leg.
  if (opts.sabotage == Sabotage::kStuckGmin &&
      leg.solver == spice::JacobianSolver::kSparse) {
    // A homotopy ladder that never removes its shunts: every node keeps
    // a 1e-3 S path to ground, far past the contract tolerance.
    n.gmin_final = 1e-3;
  }
  return n;
}

/// Strips the first occurrence of the hierarchy instance prefix
/// ("Xdut.") so wrapped-twin names ("v(Xdut.s3)", "Xdut.X5.x") map onto
/// their flat counterparts.
std::string strip_prefix(std::string name, const std::string& prefix) {
  const std::size_t pos = name.find(prefix);
  if (pos != std::string::npos) name.erase(pos, prefix.size());
  return name;
}

Waveform rename_signals(const Waveform& wave, const std::string& prefix) {
  std::vector<std::string> names;
  names.reserve(wave.num_signals());
  for (const std::string& n : wave.signal_names()) {
    names.push_back(strip_prefix(n, prefix));
  }
  Waveform out(std::move(names));
  out.reserve(wave.num_samples());
  linalg::Vector row(wave.num_signals());
  for (std::size_t k = 0; k < wave.num_samples(); ++k) {
    for (std::size_t s = 0; s < wave.num_signals(); ++s) {
      row[s] = wave.sample(s, k);
    }
    out.append(wave.times()[k], row);
  }
  return out;
}

/// Runs the legs of one (analysis, contract) pair and compares them.
/// Owns the per-analysis baseline cache so contracts sharing a reference
/// (everything except kParallelSweep, whose reference is cold-per-point)
/// solve it only once.
class Runner {
 public:
  Runner(std::function<spice::Circuit()> make_flat,
         std::function<spice::Circuit()> make_wrapped, std::string deck,
         double tstop, const CheckOptions& opts, std::string wrap_prefix)
      : make_flat_(std::move(make_flat)),
        make_wrapped_(std::move(make_wrapped)),
        deck_(std::move(deck)),
        tstop_(tstop),
        opts_(opts),
        wrap_prefix_(std::move(wrap_prefix)) {}

  /// Empty optional = contract not applicable to this analysis.
  std::optional<CompareResult> run(Analysis analysis, Contract contract) {
    switch (analysis) {
      case Analysis::kOp: return run_op_contract(contract);
      case Analysis::kTransient: return run_tran_contract(contract);
      case Analysis::kDcSweep: return run_sweep_contract(contract);
    }
    return std::nullopt;
  }

 private:
  static constexpr LegConfig kBaseline{};

  Tolerance op_tol() const { return {opts_.op_reltol, opts_.op_abstol}; }
  Tolerance tran_tol() const {
    return {opts_.tran_reltol, opts_.tran_abstol, opts_.tran_time_tol};
  }
  static Tolerance bitwise_tol() { return {}; }

  std::vector<NamedValue> solve_op(spice::Circuit& ckt,
                                   const LegConfig& leg) const {
    spice::MnaSystem system(ckt);
    spice::OpOptions o;
    o.newton = newton_for(leg, opts_);
    o.lint = lint::LintMode::kOff;  // generated circuits are clean by design
    const spice::OpResult r = spice::operating_point(system, o);
    std::vector<NamedValue> out;
    out.reserve(system.num_unknowns());
    for (std::size_t i = 0; i < system.num_unknowns(); ++i) {
      out.push_back({system.unknown_info(i).name, r.raw()[i]});
    }
    return out;
  }

  Waveform solve_tran(spice::Circuit& ckt, const LegConfig& leg) const {
    spice::MnaSystem system(ckt);
    spice::TransientOptions o;
    o.tstop = tstop_;
    o.newton = newton_for(leg, opts_);
    o.lint = lint::LintMode::kOff;
    return spice::transient(system, o);
  }

  std::vector<double> sweep_points() const {
    return spice::linspace(0.0, opts_.generator.vdd, opts_.sweep_points);
  }

  Waveform solve_sweep(spice::Circuit& ckt, const LegConfig& leg) const {
    spice::MnaSystem system(ckt);
    spice::DcSweepOptions o;
    o.newton = newton_for(leg, opts_);
    o.lint = lint::LintMode::kOff;
    auto& vin = ckt.find<devices::VoltageSource>("Vin");
    const std::vector<double> pts = sweep_points();
    return spice::dc_sweep(system, [&](double v) { vin.set_dc(v); }, pts, o);
  }

  /// Cold per-point operating points, one fresh circuit per point, over
  /// util::parallel_map on `threads` workers; results come back in point
  /// order, so any thread count must give the same bits.
  Waveform solve_sweep_parallel(std::size_t threads) const {
    const std::vector<double> pts = sweep_points();
    const std::vector<std::vector<NamedValue>> ops = util::parallel_map(
        pts.size(),
        [&](std::size_t i) {
          spice::Circuit ckt = make_flat_();
          ckt.find<devices::VoltageSource>("Vin").set_dc(pts[i]);
          return solve_op(ckt, kBaseline);
        },
        threads);
    std::vector<std::string> names;
    for (const NamedValue& nv : ops.front()) names.push_back(nv.name);
    Waveform wave(std::move(names));
    linalg::Vector row(wave.num_signals());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      for (std::size_t s = 0; s < row.size(); ++s) row[s] = ops[i][s].value;
      wave.append(pts[i], row);
    }
    return wave;
  }

  spice::CompiledCircuit make_compiled() const {
    spice::CompileOptions co;
    co.newton = newton_for(kBaseline, opts_);
    co.lint = lint::LintMode::kOff;
    return spice::compile(make_flat_(), co);
  }

  /// Deterministic small per-device threshold shifts; the overlay leg
  /// applies them through the bank, the rebuilt leg through the device
  /// setters — both write the same doubles to the same slots.
  static std::vector<double> compiled_shift_values(std::size_t count) {
    std::vector<double> shifts(count);
    for (std::size_t i = 0; i < count; ++i) {
      shifts[i] = 1e-3 * static_cast<double>(1 + (i % 8));
    }
    return shifts;
  }

  static spice::ParamPatch compiled_overlay(const spice::Circuit& ckt) {
    std::vector<spice::ParamSlot> slots;
    ckt.for_each<devices::Mosfet>([&](const devices::Mosfet& m) {
      slots.push_back(m.vth_shift_slot());
    });
    ckt.for_each<devices::Nemfet>([&](const devices::Nemfet& x) {
      slots.push_back(x.vth_shift_slot());
    });
    const std::vector<double> shifts = compiled_shift_values(slots.size());
    spice::ParamPatch patch;
    patch.reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      patch.push_back({slots[i], shifts[i]});
    }
    return patch;
  }

  static void apply_compiled_shifts(spice::Circuit& ckt) {
    std::size_t count = 0;
    ckt.for_each<devices::Mosfet>([&](const devices::Mosfet&) { ++count; });
    ckt.for_each<devices::Nemfet>([&](const devices::Nemfet&) { ++count; });
    const std::vector<double> shifts = compiled_shift_values(count);
    std::size_t i = 0;
    ckt.for_each<devices::Mosfet>(
        [&](devices::Mosfet& m) { m.set_vth_shift(shifts[i++]); });
    ckt.for_each<devices::Nemfet>(
        [&](devices::Nemfet& x) { x.set_vth_shift(shifts[i++]); });
  }

  static std::vector<NamedValue> op_values(const spice::MnaSystem& system,
                                           const spice::OpResult& r) {
    std::vector<NamedValue> out;
    out.reserve(system.num_unknowns());
    for (std::size_t i = 0; i < system.num_unknowns(); ++i) {
      out.push_back({system.unknown_info(i).name, r.raw()[i]});
    }
    return out;
  }

  /// Prefixes the leg name onto a failed comparison's detail, and folds
  /// the row counts of passing ones into `total`.
  static std::optional<CompareResult> fold_leg(CompareResult& total,
                                               CompareResult leg,
                                               const char* name) {
    if (!leg.ok) {
      leg.detail = std::string(name) + ": " + leg.detail;
      return leg;
    }
    total.compared += leg.compared;
    return std::nullopt;
  }

  std::optional<CompareResult> run_op_compiled() {
    spice::CompiledCircuit compiled = make_compiled();
    CompareResult total;
    const std::vector<NamedValue> first =
        op_values(compiled.system(), compiled.run_op());
    if (auto bad = fold_leg(total,
                            compare_values(base_op(), first, bitwise_tol()),
                            "compiled vs legacy")) {
      return bad;
    }
    const std::vector<NamedValue> second =
        op_values(compiled.system(), compiled.run_op());
    if (auto bad = fold_leg(total,
                            compare_values(first, second, bitwise_tol()),
                            "compiled re-run")) {
      return bad;
    }
    compiled.set_overlay(compiled_overlay(compiled.circuit()));
    const std::vector<NamedValue> overlaid =
        op_values(compiled.system(), compiled.run_op());
    spice::Circuit rebuilt = make_flat_();
    apply_compiled_shifts(rebuilt);
    if (auto bad = fold_leg(
            total,
            compare_values(solve_op(rebuilt, kBaseline), overlaid,
                           bitwise_tol()),
            "overlay vs rebuilt")) {
      return bad;
    }
    return total;
  }

  std::optional<CompareResult> run_tran_compiled() {
    spice::CompiledCircuit compiled = make_compiled();
    spice::TransientOptions o;
    o.tstop = tstop_;
    CompareResult total;
    const Waveform first = compiled.run_transient(o);
    if (auto bad = fold_leg(total,
                            compare_waveforms(base_tran(), first,
                                              bitwise_tol()),
                            "compiled vs legacy")) {
      return bad;
    }
    const Waveform second = compiled.run_transient(o);
    if (auto bad = fold_leg(total,
                            compare_waveforms(first, second, bitwise_tol()),
                            "compiled re-run")) {
      return bad;
    }
    compiled.set_overlay(compiled_overlay(compiled.circuit()));
    const Waveform overlaid = compiled.run_transient(o);
    spice::Circuit rebuilt = make_flat_();
    apply_compiled_shifts(rebuilt);
    if (auto bad = fold_leg(
            total,
            compare_waveforms(solve_tran(rebuilt, kBaseline), overlaid,
                              bitwise_tol()),
            "overlay vs rebuilt")) {
      return bad;
    }
    return total;
  }

  std::optional<CompareResult> run_sweep_compiled() {
    spice::CompiledCircuit compiled = make_compiled();
    const std::vector<double> pts = sweep_points();
    auto& vin = compiled.circuit().find<devices::VoltageSource>("Vin");
    auto sweep_once = [&] {
      return compiled.run_dc_sweep([&](double v) { vin.set_dc(v); }, pts);
    };
    CompareResult total;
    const Waveform first = sweep_once();
    if (auto bad = fold_leg(total,
                            compare_waveforms(base_sweep(), first,
                                              bitwise_tol()),
                            "compiled vs legacy")) {
      return bad;
    }
    const Waveform second = sweep_once();
    if (auto bad = fold_leg(total,
                            compare_waveforms(first, second, bitwise_tol()),
                            "compiled re-run")) {
      return bad;
    }
    compiled.set_overlay(compiled_overlay(compiled.circuit()));
    const Waveform overlaid = sweep_once();
    spice::Circuit rebuilt = make_flat_();
    apply_compiled_shifts(rebuilt);
    if (auto bad = fold_leg(
            total,
            compare_waveforms(solve_sweep(rebuilt, kBaseline), overlaid,
                              bitwise_tol()),
            "overlay vs rebuilt")) {
      return bad;
    }
    return total;
  }

  const std::vector<NamedValue>& base_op() {
    if (!base_op_) {
      spice::Circuit ckt = make_flat_();
      base_op_ = solve_op(ckt, kBaseline);
    }
    return *base_op_;
  }
  const Waveform& base_tran() {
    if (!base_tran_) {
      spice::Circuit ckt = make_flat_();
      base_tran_ = solve_tran(ckt, kBaseline);
    }
    return *base_tran_;
  }
  const Waveform& base_sweep() {
    if (!base_sweep_) {
      spice::Circuit ckt = make_flat_();
      base_sweep_ = solve_sweep(ckt, kBaseline);
    }
    return *base_sweep_;
  }

  std::optional<CompareResult> op_variant(const LegConfig& leg,
                                          const Tolerance& tol) {
    spice::Circuit ckt = make_flat_();
    return compare_values(base_op(), solve_op(ckt, leg), tol);
  }
  std::optional<CompareResult> tran_variant(const LegConfig& leg,
                                            const Tolerance& tol) {
    spice::Circuit ckt = make_flat_();
    return compare_waveforms(base_tran(), solve_tran(ckt, leg), tol);
  }

  std::optional<CompareResult> run_op_contract(Contract c) {
    switch (c) {
      case Contract::kDeterminism:
        return op_variant(kBaseline, bitwise_tol());
      case Contract::kRoundTrip: {
        spice::Circuit reparsed = tech::parse_netlist(deck_);
        return compare_values(base_op(), solve_op(reparsed, kBaseline),
                              bitwise_tol());
      }
      case Contract::kHierarchy: {
        if (!make_wrapped_) return std::nullopt;
        spice::Circuit wrapped = make_wrapped_();
        std::vector<NamedValue> got = solve_op(wrapped, kBaseline);
        for (NamedValue& nv : got) {
          nv.name = strip_prefix(std::move(nv.name), wrap_prefix_);
        }
        return compare_values(base_op(), got, bitwise_tol());
      }
      case Contract::kSparseVsDense:
        return op_variant({spice::JacobianSolver::kSparse}, op_tol());
      case Contract::kAnalyze:
        return run_op_analyze();
      case Contract::kCompiled:
        return run_op_compiled();
      case Contract::kParallelSweep:
        return std::nullopt;
    }
    return std::nullopt;
  }

  /// Soundness contract of the static analyzer: every predicted node
  /// interval must contain the solved OP voltage, and every region
  /// verdict's predicted unknown enclosure must hold.  The slack covers
  /// the solver's gmin regularization and Newton reltol — the analyzer
  /// bounds the exact solution, the solver delivers a perturbed one.
  std::optional<CompareResult> run_op_analyze() {
    spice::Circuit ckt = make_flat_();
    const analyze::AnalyzeReport rpt = analyze::analyze_circuit(ckt);
    const std::vector<NamedValue>& op = base_op();

    CompareResult res;
    std::ostringstream bad;
    for (const NamedValue& nv : op) {
      if (nv.name.size() > 3 && nv.name.compare(0, 2, "v(") == 0 &&
          nv.name.back() == ')') {
        const std::string node = nv.name.substr(2, nv.name.size() - 3);
        if (!ckt.has_node(node)) continue;
        const analyze::Interval iv = rpt.intervals.at(ckt.find_node(node));
        ++res.compared;
        const double slack =
            opts_.analyze_abstol + opts_.analyze_reltol * std::abs(nv.value);
        if (!iv.contains(nv.value, slack)) {
          res.ok = false;
          ++res.mismatched;
          bad << "  " << nv.name << ": solved " << nv.value
              << " V outside predicted " << iv.to_string() << " (slack "
              << slack << ")\n";
        }
      }
    }
    for (const analyze::RegionVerdict& v : rpt.verdicts) {
      if (v.unknown.empty()) continue;
      for (const NamedValue& nv : op) {
        if (nv.name != v.unknown) continue;
        ++res.compared;
        if (!v.predicted.contains(nv.value)) {
          res.ok = false;
          ++res.mismatched;
          bad << "  " << v.region << ": predicted " << v.unknown << " in "
              << v.predicted.to_string() << " but the OP solved "
              << nv.value << "\n";
        }
        break;
      }
    }
    if (!res.ok) res.detail = "analyze soundness violated:\n" + bad.str();
    return res;
  }

  std::optional<CompareResult> run_tran_contract(Contract c) {
    switch (c) {
      case Contract::kDeterminism:
        return tran_variant(kBaseline, bitwise_tol());
      case Contract::kRoundTrip: {
        spice::Circuit reparsed = tech::parse_netlist(deck_);
        return compare_waveforms(base_tran(), solve_tran(reparsed, kBaseline),
                                 bitwise_tol());
      }
      case Contract::kHierarchy: {
        if (!make_wrapped_) return std::nullopt;
        spice::Circuit wrapped = make_wrapped_();
        return compare_waveforms(
            base_tran(),
            rename_signals(solve_tran(wrapped, kBaseline), wrap_prefix_),
            bitwise_tol());
      }
      case Contract::kSparseVsDense:
        return tran_variant({spice::JacobianSolver::kSparse}, tran_tol());
      case Contract::kCompiled:
        return run_tran_compiled();
      case Contract::kParallelSweep:
      case Contract::kAnalyze:  // DC-interval contract: OP only
        return std::nullopt;
    }
    return std::nullopt;
  }

  std::optional<CompareResult> run_sweep_contract(Contract c) {
    switch (c) {
      case Contract::kDeterminism: {
        spice::Circuit ckt = make_flat_();
        return compare_waveforms(base_sweep(), solve_sweep(ckt, kBaseline),
                                 bitwise_tol());
      }
      case Contract::kParallelSweep:
        // Cold-per-point reference vs N workers: parallel_map collects
        // in input order, so the thread count must not change a bit.
        return compare_waveforms(solve_sweep_parallel(1),
                                 solve_sweep_parallel(opts_.sweep_threads),
                                 bitwise_tol());
      case Contract::kSparseVsDense: {
        spice::Circuit ckt = make_flat_();
        return compare_waveforms(
            base_sweep(), solve_sweep(ckt, {spice::JacobianSolver::kSparse}),
            op_tol());
      }
      case Contract::kCompiled:
        return run_sweep_compiled();
      default:
        return std::nullopt;
    }
  }

  std::function<spice::Circuit()> make_flat_;
  std::function<spice::Circuit()> make_wrapped_;  ///< null in deck mode
  std::string deck_;
  double tstop_;
  const CheckOptions& opts_;
  std::string wrap_prefix_;

  std::optional<std::vector<NamedValue>> base_op_;
  std::optional<Waveform> base_tran_;
  std::optional<Waveform> base_sweep_;
};

constexpr Analysis kAllAnalyses[] = {Analysis::kOp, Analysis::kTransient,
                                     Analysis::kDcSweep};

}  // namespace

CheckCaseResult run_check_case(std::uint64_t seed, const CheckOptions& opts) {
  CheckCaseResult result;
  result.seed = seed;

  GeneratedInfo info;
  const spice::Circuit probe = generate_circuit(seed, opts.generator, &info);
  const std::string deck =
      spice::netlist_string(probe, "nemsim-fuzz seed " + std::to_string(seed));

  Runner runner(
      [&] { return generate_circuit(seed, opts.generator); },
      [&] {
        return generate_circuit(seed, opts.generator, nullptr,
                                /*wrap_in_subckt=*/true);
      },
      deck, info.tstop, opts, info.wrap_prefix);

  for (Analysis analysis : kAllAnalyses) {
    for (Contract contract : kAllContracts) {
      if (opts.bitwise_only && !contract_is_bitwise(contract)) continue;
      if (opts.only_contract && contract != *opts.only_contract) continue;
      std::optional<CompareResult> cmp;
      try {
        cmp = runner.run(analysis, contract);
      } catch (const Error& e) {
        // A leg failing to solve at all breaks the contract just as
        // surely as disagreeing about the answer.
        CompareResult failed;
        failed.ok = false;
        failed.detail = std::string("leg threw: ") + e.what();
        cmp = failed;
      }
      if (!cmp) continue;  // contract not applicable to this analysis
      ++result.contracts_run;
      if (cmp->ok) continue;

      Mismatch m;
      m.seed = seed;
      m.analysis = analysis;
      m.contract = contract;
      m.detail = cmp->detail;
      m.deck = deck;
      if (opts.report != nullptr) {
        opts.report->add_note(std::string("check mismatch: seed ") +
                              std::to_string(seed) + " " + to_string(analysis) +
                              "/" + to_string(contract) + ": " + cmp->detail);
      }
      result.mismatches.push_back(std::move(m));
    }
  }
  return result;
}

bool deck_mismatches(const std::string& deck, Analysis analysis,
                     Contract contract, const CheckOptions& opts,
                     std::string* detail) {
  if (contract == Contract::kHierarchy) return false;
  // A deck that no longer parses, lints, or solves cannot *evaluate* the
  // contract, which is different from violating it — the minimizer
  // relies on this: a deletion that merely breaks the deck is rejected,
  // not mistaken for a smaller reproduction.
  try {
    tech::parse_netlist(deck);
  } catch (const Error& e) {
    if (detail != nullptr) *detail = std::string("deck invalid: ") + e.what();
    return false;
  }
  Runner runner([&deck] { return tech::parse_netlist(deck); },
                /*make_wrapped=*/nullptr, deck, /*tstop=*/4e-9, opts,
                /*wrap_prefix=*/"");
  std::optional<CompareResult> cmp;
  try {
    cmp = runner.run(analysis, contract);
  } catch (const Error& e) {
    if (detail != nullptr) *detail = std::string("leg threw: ") + e.what();
    return false;
  }
  if (!cmp) return false;
  if (detail != nullptr) *detail = cmp->detail;
  return !cmp->ok;
}

}  // namespace nemsim::check
