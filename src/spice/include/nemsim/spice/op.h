// DC operating point analysis.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "nemsim/linalg/matrix.h"
#include "nemsim/spice/analysis.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/lint.h"

namespace nemsim::spice {

struct OpOptions : AnalysisCommon {};

/// Result of an operating-point solve; values accessible by node/unknown
/// or by display name ("out" for node voltage, "i(Vdd)" for a branch).
///
/// Owns copies of the name tables it needs (node names, unknown display
/// names), so — like AcResult — it stays valid after the MnaSystem and
/// Circuit that produced it are gone.  Only solution(), which exposes
/// the live system, still requires the system to be alive.
class OpResult {
 public:
  OpResult(const MnaSystem& system, linalg::Vector x);

  /// Voltage of `node` (0 for ground).
  double v(NodeId node) const;
  /// Voltage of the node named `node_name`.
  double v(const std::string& node_name) const;
  /// Value of the unknown with display name `name` (e.g. "i(Vdd)").
  double value(const std::string& name) const;
  double x(UnknownId unknown) const;

  const linalg::Vector& raw() const { return x_; }
  /// Live-system view (the one accessor that still needs the MnaSystem
  /// this result came from to be alive).
  Solution solution() const { return Solution(*system_, x_); }

 private:
  const MnaSystem* system_;
  linalg::Vector x_;
  /// Unknown index per node index (-1 for ground / unmapped nodes).
  std::vector<std::ptrdiff_t> node_unknown_;
  std::unordered_map<std::string, std::size_t> node_index_;
  std::unordered_map<std::string, std::size_t> unknown_index_;
};

/// Solves the DC operating point and commits it to device state (so a
/// following transient starts from this bias point).
OpResult operating_point(MnaSystem& system, const OpOptions& options = {});

/// Same, but starting Newton from `x0` (continuation use).
OpResult operating_point_from(MnaSystem& system, const linalg::Vector& x0,
                              const OpOptions& options = {});

}  // namespace nemsim::spice
