// Configuration-matrix executor: runs one generated circuit through
// every redundant engine path and compares the results under the
// contract each path promises.
//
// Contract classes (see DESIGN.md "Differential-check contracts"):
//  - bitwise: two legs must produce identical bits.
//      kDeterminism    rebuild + rerun of the same configuration
//      kRoundTrip      export_netlist -> parse_netlist -> rerun (the
//                      generator only emits exactly-representable
//                      parameter values, so this is bitwise, not close)
//      kHierarchy      flat twin vs subcircuit-wrapped twin (names
//                      normalized by stripping the instance prefix)
//      kParallelSweep  cold per-point operating points (one fresh circuit
//                      per point) over util::parallel_map, 1 thread vs N
//      kCompiled       compile/execute split: a CompiledCircuit's first
//                      run vs the legacy driver, its second run vs the
//                      first (per-run state ownership), and a parameter
//                      bank overlay vs a rebuilt circuit with the same
//                      values written through device setters
//  - reltol: two legs must agree to a tolerance because they perform
//    different arithmetic on the way to the same converged solution.
//      kSparseVsDense  JacobianSolver::kDense vs kSparse
//  - soundness: a static prediction must contain the dynamic result.
//      kAnalyze        nemsim::analyze's DC node intervals must contain
//                      the solved operating point (within a small slack
//                      for the solver's gmin/reltol perturbation), and
//                      every operating-region verdict's predicted
//                      unknown enclosure must hold at the OP
//
// Every leg builds its OWN circuit from the seed — device state
// (capacitor history, NEMS beam position) must never leak between legs.
// The baseline leg (dense LU, flat, serial) is solved
// once per analysis and shared as the reference for all contracts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nemsim/check/compare.h"
#include "nemsim/check/generator.h"
#include "nemsim/spice/diagnostics.h"

namespace nemsim::check {

enum class Analysis { kOp, kTransient, kDcSweep };
enum class Contract {
  kDeterminism,
  kRoundTrip,
  kHierarchy,
  kParallelSweep,
  kSparseVsDense,
  kAnalyze,
  kCompiled,
};

/// Every contract, in the order the matrix runs them.
inline constexpr Contract kAllContracts[] = {
    Contract::kDeterminism,   Contract::kRoundTrip, Contract::kHierarchy,
    Contract::kParallelSweep, Contract::kSparseVsDense, Contract::kAnalyze,
    Contract::kCompiled,
};

const char* to_string(Analysis a);
const char* to_string(Contract c);
bool contract_is_bitwise(Contract c);
/// Parses the kebab-case names printed by to_string; throws
/// InvalidArgument on anything else.
Analysis parse_analysis(const std::string& s);
Contract parse_contract(const std::string& s);

/// Deliberate defect injection, for proving the checker catches what it
/// claims to catch (and for exercising the minimizer on a real
/// mismatch).  kStuckGmin models a homotopy ladder that never removes
/// its shunts: the sparse leg of kSparseVsDense solves with a 1e-3 S
/// gmin left on every node, so its solution drifts visibly from the
/// dense reference.
enum class Sabotage { kNone, kStuckGmin };

struct CheckOptions {
  GeneratorOptions generator;
  /// Restrict to the bitwise contracts (fast smoke tier).
  bool bitwise_only = false;
  /// Restrict to one contract (e.g. a dedicated kAnalyze soundness
  /// sweep); empty runs the whole matrix.
  std::optional<Contract> only_contract;
  Sabotage sabotage = Sabotage::kNone;
  /// Reltol-contract tolerances.  OP solves share one Newton tolerance,
  /// so they agree tightly; transients accumulate step-sequence
  /// differences through the LTE controller and get more room.
  double op_reltol = 1e-6;
  double op_abstol = 1e-9;
  /// Transient tolerances judge *trajectories*, not single solves: two
  /// legs doing different arithmetic adapt different step sequences, and
  /// the integrator only bounds per-step truncation error to lte_reltol
  /// (2e-3) — at switching edges the accumulated, interpolated
  /// divergence between two legitimate step sequences reaches a few
  /// times that (measured ~0.6 % worst case on generated circuits).
  /// tran_reltol therefore sits at 5x LTE; anything past it means a leg
  /// left the converged trajectory, not that the steppers disagreed
  /// about where to sample it (this margin caught a fast-restart defect:
  /// blind dt/8 post-breakpoint steps displaced trajectories by ~30 mV /
  /// 15 %).  tran_abstol covers small-amplitude nodes whose per-signal
  /// reltol scale shrinks to a few microvolts.
  double tran_reltol = 1e-2;
  double tran_abstol = 2e-5;
  /// Time half-width of the comparison tube (Tolerance::time_tol):
  /// pointwise values may match anywhere within +/- this much of the
  /// reference time, absorbing the few-ps step-sequence skew two
  /// legitimate adaptive integrations accumulate through a fast edge.
  double tran_time_tol = 5e-12;
  /// kAnalyze containment slack.  The analyzer's intervals enclose the
  /// *exact* DC solution; the solver hands back one perturbed by its
  /// final gmin shunts (1e-15 S against conductances no smaller than the
  /// NEMFET goff floor, worst case ~1e-5 V) and its Newton reltol.
  double analyze_abstol = 1e-4;
  double analyze_reltol = 1e-6;
  std::size_t sweep_points = 9;        ///< DC sweep 0..vdd point count
  std::size_t sweep_threads = 4;       ///< "N threads" leg of kParallelSweep
  /// Optional sink: mismatches become report notes.  Each Mismatch
  /// carries its deck (nemsim-fuzz writes it under --out).
  spice::RunReport* report = nullptr;
};

struct Mismatch {
  std::uint64_t seed = 0;
  Analysis analysis = Analysis::kOp;
  Contract contract = Contract::kDeterminism;
  /// Worst row named via the MNA unknown table, both values, tolerance.
  std::string detail;
  /// Netlist reproducing the failure (feed to deck_mismatches or
  /// `nemsim-fuzz --deck`).
  std::string deck;
};

struct CheckCaseResult {
  std::uint64_t seed = 0;
  std::size_t contracts_run = 0;
  std::vector<Mismatch> mismatches;
  bool ok() const { return mismatches.empty(); }
};

/// Runs the full contract matrix for one seed.
CheckCaseResult run_check_case(std::uint64_t seed, const CheckOptions& opts);

/// Replays one (analysis, contract) leg on an explicit deck instead of a
/// generated circuit; returns true when the deck still violates the
/// contract.  This is the minimizer's predicate and the CLI's `--deck`
/// repro path.  kHierarchy is not deck-replayable (the wrapped twin
/// needs the generator) and always returns false.
bool deck_mismatches(const std::string& deck, Analysis analysis,
                     Contract contract, const CheckOptions& opts,
                     std::string* detail = nullptr);

}  // namespace nemsim::check
