// Tolerance-aware result comparison for the differential checker.
//
// Two comparison regimes back the two contract classes:
//  - bitwise (Tolerance{0, 0}): every value must be identical to the
//    last bit (== on doubles; NaN never matches).  Used for contracts
//    where the engine promises the exact same arithmetic: rerun
//    determinism, parallel sweeps, hierarchy flattening, netlist round
//    trips on exactly-representable decks.
//  - reltol: |got - ref| <= reltol * scale + abstol, where scale is the
//    per-signal maximum |ref| (so microvolt wiggles on a 1 V signal are
//    judged against the signal, not against zero).  Used for contracts
//    that promise the same converged solution through different
//    arithmetic: dense vs sparse LU.
//
// All comparisons name their worst row via the caller-provided display
// names (the MNA unknown table), so a mismatch report reads
// "v(Xdut.s3): ref=... got=..." rather than "row 17".
#pragma once

#include <string>
#include <vector>

#include "nemsim/spice/waveform.h"

namespace nemsim::check {

struct Tolerance {
  double reltol = 0.0;
  double abstol = 0.0;
  /// Waveform comparisons only: a sample matches if the value tolerance
  /// holds for ANY got-trace point within +/- time_tol of the reference
  /// time (a value+time "tube", as in waveform regression tools).  Two
  /// legitimate adaptive step sequences accumulate a few picoseconds of
  /// skew through a fast edge; at 24 V/ns a 1 ps skew is 24 mV of
  /// pointwise error that says nothing about solution accuracy.  0
  /// compares strictly pointwise.
  double time_tol = 0.0;
  bool bitwise() const { return reltol == 0.0 && abstol == 0.0; }
};

/// One (name, value) pair of a solution vector.
struct NamedValue {
  std::string name;
  double value = 0.0;
};

struct CompareResult {
  bool ok = true;
  std::size_t compared = 0;    ///< values examined
  std::size_t mismatched = 0;  ///< values out of tolerance
  /// Human-readable report: worst row first (named via the unknown
  /// table), then both full vectors when they disagree.
  std::string detail;
};

/// Compares two solution vectors row by row.  Names must agree pairwise
/// (a name mismatch is itself a failure: the two legs disagreed about
/// the unknown table).
CompareResult compare_values(const std::vector<NamedValue>& ref,
                             const std::vector<NamedValue>& got,
                             const Tolerance& tol);

/// Compares two waveforms.  Bitwise: identical axes and identical
/// samples.  Reltol: `got` is interpolated onto the reference axis and
/// judged per signal against reltol * max|ref| + abstol (axes may
/// differ — adaptive steppers on different arithmetic land on different
/// step sequences).  Signal name sets must match exactly in both modes.
CompareResult compare_waveforms(const spice::Waveform& ref,
                                const spice::Waveform& got,
                                const Tolerance& tol);

}  // namespace nemsim::check
