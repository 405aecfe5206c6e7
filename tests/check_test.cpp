// Differential-correctness harness tests: generator determinism and
// lint-cleanliness, the tolerance comparator, the contract matrix on
// pinned seeds, deliberate-defect detection, and the deck minimizer.
#include <gtest/gtest.h>

#include <cmath>

#include "nemsim/check/checker.h"
#include "nemsim/check/compare.h"
#include "nemsim/check/generator.h"
#include "nemsim/check/minimize.h"
#include "nemsim/linalg/matrix.h"
#include "nemsim/spice/lint.h"
#include "nemsim/spice/netlist_export.h"
#include "nemsim/tech/netlist_parser.h"
#include "nemsim/util/error.h"

namespace nemsim {
namespace {

using check::Analysis;
using check::CheckCaseResult;
using check::CheckOptions;
using check::CompareResult;
using check::Contract;
using check::NamedValue;
using check::Sabotage;
using check::Tolerance;

// ------------------------------------------------------------ generator

TEST(CheckGenerator, SameSeedRebuildsIdenticalCircuit) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    spice::Circuit a = check::generate_circuit(seed);
    spice::Circuit b = check::generate_circuit(seed);
    EXPECT_EQ(spice::netlist_string(a, "t"), spice::netlist_string(b, "t"));
  }
}

TEST(CheckGenerator, DifferentSeedsDiffer) {
  spice::Circuit a = check::generate_circuit(3);
  spice::Circuit b = check::generate_circuit(4);
  EXPECT_NE(spice::netlist_string(a, "t"), spice::netlist_string(b, "t"));
}

TEST(CheckGenerator, GeneratedCircuitsAreLintClean) {
  // Structural cleanliness by construction: no errors, no warnings
  // (hints are allowed — they flag style, not structure).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    spice::Circuit ckt = check::generate_circuit(seed);
    lint::LintReport report = lint::lint_circuit(ckt);
    EXPECT_EQ(report.errors, 0u) << "seed " << seed;
    EXPECT_EQ(report.warnings, 0u) << "seed " << seed;
  }
}

TEST(CheckGenerator, RoundTripReproducesTheExactNetlist) {
  // Every generated parameter value is exactly representable at the
  // exporter's precision: export -> parse -> export is a fixpoint.
  for (std::uint64_t seed : {2ull, 11ull}) {
    spice::Circuit a = check::generate_circuit(seed);
    const std::string deck = spice::netlist_string(a, "t");
    spice::Circuit b = tech::parse_netlist(deck);
    EXPECT_EQ(spice::netlist_string(b, "t"), deck);
  }
}

TEST(CheckGenerator, WrappedTwinSharesTheStageSequence) {
  check::GeneratedInfo flat_info, wrapped_info;
  spice::Circuit flat = check::generate_circuit(5, {}, &flat_info, false);
  spice::Circuit wrapped = check::generate_circuit(5, {}, &wrapped_info, true);
  EXPECT_EQ(flat_info.stages, wrapped_info.stages);
  EXPECT_EQ(flat.num_devices(), wrapped.num_devices());
}

// ----------------------------------------------------------- comparator

TEST(CheckCompare, BitwiseCatchesOneUlp) {
  const std::vector<NamedValue> ref = {{"v(a)", 1.0}};
  const std::vector<NamedValue> same = {{"v(a)", 1.0}};
  std::vector<NamedValue> off = ref;
  off[0].value = std::nextafter(1.0, 2.0);
  EXPECT_TRUE(check::compare_values(ref, same, Tolerance{}).ok);
  const CompareResult r = check::compare_values(ref, off, Tolerance{});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.mismatched, 1u);
  EXPECT_NE(r.detail.find("v(a)"), std::string::npos);
}

TEST(CheckCompare, BitwiseNeverMatchesNan) {
  const double nan = std::nan("");
  const std::vector<NamedValue> ref = {{"v(a)", nan}};
  const std::vector<NamedValue> got = {{"v(a)", nan}};
  EXPECT_FALSE(check::compare_values(ref, got, Tolerance{}).ok);
}

TEST(CheckCompare, ReltolScalesWithTheReference) {
  const std::vector<NamedValue> ref = {{"v(a)", 1.0}};
  const std::vector<NamedValue> got = {{"v(a)", 1.0005}};
  EXPECT_TRUE(check::compare_values(ref, got, Tolerance{1e-3, 0.0}).ok);
  EXPECT_FALSE(check::compare_values(ref, got, Tolerance{1e-4, 0.0}).ok);
}

TEST(CheckCompare, UnknownTableDisagreementIsItselfAFailure) {
  const std::vector<NamedValue> ref = {{"v(a)", 1.0}};
  const std::vector<NamedValue> got = {{"v(b)", 1.0}};
  const CompareResult r = check::compare_values(ref, got, Tolerance{});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("unknown tables disagree"), std::string::npos);
}

TEST(CheckCompare, TimeTubeForgivesPureSkew) {
  // got is ref delayed by 1 time unit on a ramp: pointwise comparison
  // fails, the +/- 1.5 tube passes (the value is found nearby in time).
  spice::Waveform ref({"sig"}), got({"sig"});
  linalg::Vector v(1);
  for (int k = 0; k <= 10; ++k) {
    v[0] = 0.1 * k;
    ref.append(static_cast<double>(k), v);
    got.append(static_cast<double>(k) + 1.0, v);
  }
  Tolerance pointwise{1e-3, 0.0, 0.0};
  EXPECT_FALSE(check::compare_waveforms(ref, got, pointwise).ok);
  Tolerance tube{1e-3, 0.0, 1.5};
  EXPECT_TRUE(check::compare_waveforms(ref, got, tube).ok);
}

TEST(CheckCompare, TimeTubeFindsCrossingsBetweenGotSamples) {
  // got is the same steep ramp skewed by 0.2, sampled 2.5x coarser than
  // ref: inside the tube the got trace CROSSES each reference value
  // strictly between its own samples, where neither a sample nor a tube
  // endpoint lands closer than half a per-sample swing.  The tube must
  // credit the crossing itself (minimum distance zero), not just the
  // sampled candidates — this is how a sub-tube skew on a fast edge
  // stays forgiven when the two step sequences do not line up.
  spice::Waveform ref({"sig"}), got({"sig"});
  linalg::Vector v(1);
  for (int k = 0; k <= 20; ++k) {
    v[0] = 0.5 * k;
    ref.append(0.5 * k, v);
  }
  for (int k = 0; k <= 9; ++k) {
    v[0] = 1.25 * k - 0.2;
    got.append(1.25 * k, v);
  }
  // Pointwise the 0.2 offset exceeds the allowance (reltol 1e-3 of the
  // 10.0 full-scale = 0.01)...
  Tolerance pointwise{1e-3, 0.0, 0.0};
  EXPECT_FALSE(check::compare_waveforms(ref, got, pointwise).ok);
  // ...and a 0.5 tube contains the crossing but NO got sample within
  // the allowance of most reference values (samples sit 1.25 apart in
  // value), so only crossing detection lets this pass.
  Tolerance tube{1e-3, 0.0, 0.5};
  EXPECT_TRUE(check::compare_waveforms(ref, got, tube).ok);
}

// -------------------------------------------------------- contract matrix

CheckOptions quiet_options() {
  CheckOptions opts;
  return opts;
}

TEST(CheckCase, PinnedSeedsRunCleanAcrossTheFullMatrix) {
  // Smoke corpus: the full 15-leg matrix (6 op + 5 transient + 4 dc
  // sweep contracts) passes on pinned seeds.  A failure here means an engine path broke a redundancy
  // contract — see the mismatch detail.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const CheckCaseResult r = check::run_check_case(seed, quiet_options());
    EXPECT_EQ(r.contracts_run, 15u) << "seed " << seed;
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": "
                        << (r.mismatches.empty()
                                ? ""
                                : r.mismatches.front().detail);
  }
}

TEST(CheckCase, BitwiseOnlySubsetRunsTheBitwiseContracts) {
  CheckOptions opts = quiet_options();
  opts.bitwise_only = true;
  const CheckCaseResult r = check::run_check_case(4, opts);
  // determinism + round-trip + hierarchy + compiled for op and tran,
  // determinism + parallel-sweep + compiled for dc sweep: 11 legs, all
  // bitwise.
  EXPECT_EQ(r.contracts_run, 11u);
  EXPECT_TRUE(r.ok()) << (r.mismatches.empty() ? ""
                                               : r.mismatches.front().detail);
}

TEST(CheckCase, OnlyContractRestrictsTheMatrixToOneLeg) {
  CheckOptions opts = quiet_options();
  opts.only_contract = Contract::kAnalyze;
  const CheckCaseResult r = check::run_check_case(5, opts);
  // kAnalyze is an op-only soundness contract: exactly one leg runs,
  // and the predicted intervals contain the solved operating point.
  EXPECT_EQ(r.contracts_run, 1u);
  EXPECT_TRUE(r.ok()) << (r.mismatches.empty() ? ""
                                               : r.mismatches.front().detail);
}

TEST(CheckCase, StuckGminSabotageIsCaught) {
  CheckOptions opts = quiet_options();
  opts.sabotage = Sabotage::kStuckGmin;
  const CheckCaseResult r = check::run_check_case(1, opts);
  ASSERT_FALSE(r.ok());
  bool sparse_flagged = false;
  for (const check::Mismatch& m : r.mismatches) {
    // The defect lives on the sparse leg of kSparseVsDense only.
    EXPECT_EQ(m.contract, Contract::kSparseVsDense);
    if (m.contract == Contract::kSparseVsDense) {
      sparse_flagged = true;
      EXPECT_FALSE(m.deck.empty());
      EXPECT_NE(m.detail.find("ref="), std::string::npos);
    }
  }
  EXPECT_TRUE(sparse_flagged);
}

// ------------------------------------------------------------- minimizer

TEST(CheckMinimize, ShrinksASabotagedDeckAndKeepsTheMismatch) {
  CheckOptions opts = quiet_options();
  opts.sabotage = Sabotage::kStuckGmin;
  const CheckCaseResult r = check::run_check_case(1, opts);
  ASSERT_FALSE(r.ok());
  const check::Mismatch* target = nullptr;
  for (const check::Mismatch& m : r.mismatches) {
    if (m.contract == Contract::kSparseVsDense &&
        m.analysis == Analysis::kOp) {
      target = &m;
      break;
    }
  }
  ASSERT_NE(target, nullptr);

  const check::MinimizeResult min =
      check::minimize_deck(target->deck, target->analysis, target->contract,
                           opts);
  EXPECT_GT(min.devices_removed, 0u);
  EXPECT_LT(min.deck.size(), target->deck.size());
  EXPECT_GT(min.predicate_calls, 0u);
  // The shrunk deck still reproduces through the public predicate.
  EXPECT_TRUE(check::deck_mismatches(min.deck, target->analysis,
                                     target->contract, opts));
}

TEST(CheckMinimize, RefusesAPassingDeck) {
  spice::Circuit ckt = check::generate_circuit(1);
  const std::string deck = spice::netlist_string(ckt, "passing");
  EXPECT_THROW(check::minimize_deck(deck, Analysis::kOp,
                                    Contract::kSparseVsDense, quiet_options()),
               InvalidArgument);
}

// ----------------------------------------------------------- name parsing

TEST(CheckNames, ToStringAndParseRoundTrip) {
  for (Contract c : check::kAllContracts) {
    EXPECT_EQ(check::parse_contract(check::to_string(c)), c);
  }
  for (Analysis a :
       {Analysis::kOp, Analysis::kTransient, Analysis::kDcSweep}) {
    EXPECT_EQ(check::parse_analysis(check::to_string(a)), a);
  }
  EXPECT_THROW(check::parse_contract("nope"), InvalidArgument);
  EXPECT_THROW(check::parse_analysis("nope"), InvalidArgument);
}

}  // namespace
}  // namespace nemsim
