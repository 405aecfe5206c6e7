// Dedicated ddmin-minimizer coverage (src/check/minimize.cpp): the
// shrunk deck must still violate the *same* contract leg it was shrunk
// against, the result must be a fixpoint of the minimizer (re-running it
// removes nothing), and the input-validation contract must hold.
// check_test.cpp covers the happy path once; this suite pins the
// properties a debugging workflow actually leans on.
#include <gtest/gtest.h>

#include <string>

#include "nemsim/check/checker.h"
#include "nemsim/check/generator.h"
#include "nemsim/check/minimize.h"
#include "nemsim/spice/netlist_export.h"
#include "nemsim/util/error.h"

namespace nemsim {
namespace {

using check::Analysis;
using check::CheckOptions;
using check::Contract;
using check::MinimizeResult;
using check::Sabotage;

CheckOptions sabotaged_options() {
  CheckOptions opts;
  opts.sabotage = Sabotage::kStuckGmin;
  return opts;
}

// One sabotaged mismatch, shared across the suite (run_check_case is
// the expensive part; the properties below all start from it).
const check::Mismatch& sabotaged_mismatch() {
  static const check::Mismatch m = [] {
    const check::CheckCaseResult r =
        check::run_check_case(1, sabotaged_options());
    for (const check::Mismatch& cand : r.mismatches) {
      if (cand.contract == Contract::kSparseVsDense &&
          cand.analysis == Analysis::kOp) {
        return cand;
      }
    }
    ADD_FAILURE() << "stuck-gmin sabotage produced no op/sparse-vs-dense "
                     "mismatch to minimize";
    return check::Mismatch{};
  }();
  return m;
}

TEST(Minimize, ShrunkDeckStillFailsTheSameContractLeg) {
  const check::Mismatch& m = sabotaged_mismatch();
  ASSERT_FALSE(m.deck.empty());
  const CheckOptions opts = sabotaged_options();

  const MinimizeResult min =
      check::minimize_deck(m.deck, m.analysis, m.contract, opts);
  EXPECT_LE(min.deck.size(), m.deck.size());

  // The defining invariant: minimization preserves the failure, on the
  // exact (analysis, contract) pair it was invoked for — not just "some
  // leg somewhere still fails".
  std::string detail;
  EXPECT_TRUE(check::deck_mismatches(min.deck, m.analysis, m.contract, opts,
                                     &detail));
  EXPECT_FALSE(detail.empty());

  // Without the sabotage the shrunk deck is an ordinary healthy circuit:
  // the minimizer kept the *trigger*, not some independent breakage.
  CheckOptions healthy;
  EXPECT_FALSE(
      check::deck_mismatches(min.deck, m.analysis, m.contract, healthy));
}

TEST(Minimize, MinimizationIsIdempotent) {
  const check::Mismatch& m = sabotaged_mismatch();
  ASSERT_FALSE(m.deck.empty());
  const CheckOptions opts = sabotaged_options();

  const MinimizeResult once =
      check::minimize_deck(m.deck, m.analysis, m.contract, opts);
  const MinimizeResult twice =
      check::minimize_deck(once.deck, m.analysis, m.contract, opts);
  // The first pass ran ddmin to a fixpoint, so the second finds nothing
  // left to take: no devices, no node merges, identical deck text.
  EXPECT_EQ(twice.devices_removed, 0u);
  EXPECT_EQ(twice.nodes_merged, 0u);
  EXPECT_EQ(twice.deck, once.deck);
}

TEST(Minimize, RefusesADeckThatDoesNotMismatch) {
  spice::Circuit ckt = check::generate_circuit(2);
  const std::string deck = spice::netlist_string(ckt, "healthy");
  EXPECT_THROW(check::minimize_deck(deck, Analysis::kOp,
                                    Contract::kSparseVsDense, CheckOptions{}),
               InvalidArgument);
}

TEST(Minimize, RefusesTheNonReplayableHierarchyContract) {
  const check::Mismatch& m = sabotaged_mismatch();
  ASSERT_FALSE(m.deck.empty());
  // kHierarchy needs the generator's wrapped twin; a deck alone cannot
  // replay it, so the minimizer must refuse rather than "succeed" by
  // deleting everything against a vacuously-false predicate.
  EXPECT_THROW(check::minimize_deck(m.deck, m.analysis, Contract::kHierarchy,
                                    sabotaged_options()),
               InvalidArgument);
}

}  // namespace
}  // namespace nemsim
